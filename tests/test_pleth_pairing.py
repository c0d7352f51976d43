"""Plethysm pairings <h, f[g]> on class sums against the routes they
replaced, and the truncated product kernel against the full product.

The ``_ref_*`` functions are the earlier code: ``outer_plethysm``
multiplied every p_k[g] into its tail, even one that the cap leaves
constant; ``littlewood_pair`` built g[sigma_1] in the p basis and paired
the readout with ``hall_scalar``, and ``endofunction_signature`` did the
same for m_lam[1 + t_1 h_1 + ...].  Values are compared with their
types; ParamPoly values also by their text and their terms.
"""

from fractions import Fraction
from functools import reduce
from math import factorial

import pytest

from symcalc.alphabets import (TruncatedSeries, _pleth_pairing,
                               invert_sigma, outer_plethysm, sigma_minus_one,
                               sigma_series)
from symcalc.apps import (_weight_alphabet, endofunction_signature,
                          littlewood_pair)
from symcalc.coeffs import ParamPoly, coeff_frobenius, format_coeff
from symcalc.partitions import partitions_of
from symcalc.symfunc import (BASES, SymExpr, _class_product, _class_sums,
                             _from_class_sums, _keyed, _p_weights, _vectors,
                             convert, elem, hall_scalar, homog, mono, power,
                             schur)
from oracles import canon, plain_product
from test_class_vectors import _add_scaled

MAKERS = {"s": schur, "h": homog, "e": elem, "p": power, "m": mono}


# -- the earlier routes, as references ----------------------------------


def _ref_outer_plethysm(f, g):
    if isinstance(g, TruncatedSeries):
        g, cap = g.expr, g.cap
    else:
        cap = None
    gsums = dict(_keyed(_class_sums(g)))
    powers = {}
    tails = {(): {(): 1}}

    def tail(alpha):
        got = tails.get(alpha)
        if got is None:
            k = alpha[0]
            if k not in powers:
                powers[k] = {tuple(x * k for x in nu): coeff_frobenius(c, k)
                             * (factorial(k * sum(nu)) // factorial(sum(nu)))
                             for nu, c in gsums.items()
                             if cap is None or k * sum(nu) <= cap}
            got = tails[alpha] = _class_product(
                powers[k].items(), tail(alpha[1:]).items(), cap)
        return got

    big, weights = _p_weights(f)
    out = {}
    for alpha, w in weights:
        _add_scaled(out, w, tail(alpha).items())
    result = _from_class_sums(_vectors(out.items()), f.basis, big)
    if cap is not None:
        return TruncatedSeries(result, cap)
    return result


def _ref_littlewood_pair(f, g, cap):
    return hall_scalar(f, _ref_outer_plethysm(
        convert(g, "p"), sigma_series("sigma", 1, cap)).expr)


def _ref_pleth_pairing(h, f, g):
    r = _ref_outer_plethysm(f, g)
    return hall_scalar(h, r.expr if isinstance(r, TruncatedSeries) else r)


def _ref_endofunction_signature(n):
    alphabet = _weight_alphabet(n, with_t0=False) + SymExpr(
        "h", {(): Fraction(1)})
    params = tuple(f"t{j}" for j in range(1, n + 1))
    total = ParamPoly.const(0, params)
    for lam in partitions_of(n):
        total = total + hall_scalar(
            homog(lam),
            _ref_outer_plethysm(mono(lam), TruncatedSeries(alphabet, n)).expr)
    return total


def _same_expr(a, b):
    if isinstance(a, TruncatedSeries):
        assert a.cap == b.cap
        a, b = a.expr, b.expr
    assert a.basis == b.basis
    assert list(a.terms) == list(b.terms)
    for lam, c in a.terms.items():
        _same(c, b.terms[lam])


def _same(a, b):
    assert type(a) is type(b), (a, b)
    assert a == b
    if isinstance(a, ParamPoly):
        assert format_coeff(a) == format_coeff(b)
        assert sorted(canon(a).terms.items()) == sorted(
            canon(b).terms.items())


# -- the pairings -------------------------------------------------------


@pytest.mark.parametrize("d", range(1, 5))
def test_littlewood_pair_matches_the_p_basis_route(d):
    for mu in partitions_of(d):
        f = schur(mu)
        for n in range(0, 9):
            for nu in partitions_of(n):
                g = schur(nu)
                got = littlewood_pair(f, g, d)
                _same(got, _ref_littlewood_pair(f, g, d))
                assert repr(got) == repr(_ref_littlewood_pair(f, g, d))


def _series():
    w = TruncatedSeries(_weight_alphabet(2), 4)
    w1 = TruncatedSeries(_weight_alphabet(3, with_t0=False)
                         + SymExpr("h", {(): Fraction(1)}), 4)
    return {
        "sigma": sigma_series("sigma", 1, 5),
        "sigma-1": sigma_minus_one(5),
        "invert_sigma": invert_sigma(4),
        "h2": homog([2]),
        "h3": homog([3]),
        "weights": w,
        "1+weights": w1,
        "p1+2": power([1]) + 2,
        "p1-1": TruncatedSeries(power([1]) - 1, 5),
        "p1+1/2": power([1]) + Fraction(1, 2),
        # caps below deg f: p_3[g] is the constant term alone
        "(p1+2) cap 2": TruncatedSeries(power([1]) + 2, 2),
        "weights cap 2": TruncatedSeries(_weight_alphabet(2), 2),
    }


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("name", sorted(_series()))
def test_pleth_pairing_matches_readout_then_hall_scalar(basis, name):
    g = _series()[name]
    for k in range(0, 4):
        for lam in partitions_of(k):
            f = MAKERS[basis](lam)
            top = outer_plethysm(f, g)
            _same_expr(top, _ref_outer_plethysm(f, g))
            top = (top.expr if isinstance(top, TruncatedSeries) else top)
            for deg in range(0, top.degree() + 1):
                for rho in partitions_of(deg):
                    for h in (schur(rho), power(rho) * Fraction(2, 3)):
                        _same(_pleth_pairing(h, f, g),
                              _ref_pleth_pairing(h, f, g))


def test_pleth_pairing_of_an_inhomogeneous_pair():
    f = schur([2, 1]) + homog([2]) * 3 - elem([1])
    h = schur([3]) + power([2, 1]) - schur([]) * 5
    for g in _series().values():
        _same(_pleth_pairing(h, f, g), _ref_pleth_pairing(h, f, g))


@pytest.mark.parametrize("n", range(1, 7))
def test_endofunction_signature_matches_the_readout_loop(n):
    got, ref = endofunction_signature(n), _ref_endofunction_signature(n)
    _same(got, ref)
    assert got.params == ref.params
    assert format_coeff(got).encode() == format_coeff(ref).encode()


# -- the truncated product kernel ---------------------------------------


@pytest.mark.parametrize("binomial", (False, True))
def test_capped_product_is_the_full_product_cut(binomial):
    factors = [dict(_keyed(_class_sums(f))) for f in
               (schur([2, 1]) + homog([1]) - 1, elem([3]) + power([1, 1]),
                homog([2]) * 4 + schur([1]), schur([4]) - mono([2, 1]))]

    def product(cap=None):
        if not binomial:
            return plain_product([fs.items() for fs in factors], cap)
        return reduce(lambda acc, fs: _class_product(acc.items(), fs.items(),
                                                     cap), factors, {(): 1})

    full = product()
    for cap in range(0, 14):
        cut = [(k, v) for k, v in full.items() if sum(k) <= cap]
        got = product(cap)
        assert list(got.items()) == cut
