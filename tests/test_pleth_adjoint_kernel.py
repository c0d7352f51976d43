"""The adjoint of plethysm ``_pleth_adjoint`` against its definition.

[h_mu] of ``_pleth_adjoint(f, tail, degrees)`` is <f, m_mu[g]>, one
plethysm pairing per mu, for the g whose ``_tails`` tree is ``tail``.
The ``_ref_*`` functions are the earlier code: ``endofunction_signature``
summed one pairing <h_lam, m_lam[1 + t_1 h_1 + ...]> per lam |- n, and
the tilde rows paired the class row of h_lam on each tail and read the
values out in h.  Coefficients are compared with their types, and
ParamPoly values with their params, terms and caps.
"""

from fractions import Fraction

import pytest

from symcalc.alphabets import (TruncatedSeries, _pleth_adjoint,
                               _pleth_pairing, _shared_tail, _tails,
                               invert_sigma, sigma_minus_one)
from symcalc.apps import _weight_alphabet, endofunction_signature
from symcalc.coeffs import ParamPoly
from symcalc.partitions import partitions_of, partitions_up_to
from symcalc.stable import _pleth_columns
from symcalc.symfunc import (BASES, SymExpr, _class_row, _from_class_values,
                             _pair, _vectors, elem, homog, mono, power, schur)

MAKERS = {"s": schur, "h": homog, "e": elem, "p": power, "m": mono}
T = ParamPoly.var("t")
Q = ParamPoly.var("q", 2)


def _same(a, b):
    assert type(a) is type(b), (a, b)
    assert a == b
    if isinstance(a, ParamPoly):
        assert a.params == b.params
        assert sorted(a.terms.items()) == sorted(b.terms.items())
        assert a.caps == b.caps


def _inputs(basis):
    """Homogeneous f, as every caller passes, with Fraction and ParamPoly
    coefficients; the ParamPoly terms of one f carry the same params."""
    make = MAKERS[basis]
    out = []
    for d in range(1, 5):
        out += [make(lam) for lam in partitions_of(d)]
    out += [make([2, 1], Fraction(2, 3)) + make([3], Fraction(-1, 5)),
            make([2, 1], T) + make([1, 1, 1], Fraction(1, 2)),
            make([2, 2], Q * T) + make([3, 1], T * Q - 1),
            make([2]) * 3 - make([1, 1], T)]
    return out


def _tail_of(name, d):
    """(tail, g as a series at cap d) for the g called ``name``."""
    if name in ("H", "M"):
        s = (sigma_minus_one if name == "H" else invert_sigma)(d)
        return _tails(s.expr, s.cap), s
    g = {"h2": homog([2]),
         "weights": _weight_alphabet(d),
         "weights without t0": _weight_alphabet(d, with_t0=False)}[name]
    return _shared_tail(g, d), TruncatedSeries(g, d)


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("name", ["h2", "weights", "weights without t0",
                                  "H", "M"])
def test_coefficients_are_plethysm_pairings(basis, name):
    for f in _inputs(basis):
        d = max(f.degree(), 1)
        tail, g = _tail_of(name, d)
        got = _pleth_adjoint(f, tail, range(d + 2))
        assert got.basis == "h"
        for mu in partitions_up_to(d + 1):
            want = _pleth_pairing(f, mono(mu), g)
            if want:
                _same(got.terms[mu], want)
            else:
                assert mu not in got.terms, (f, mu)


def test_coefficients_carry_at_least_the_params_of_the_pairing():
    """Where the terms of f carry other params, a readout over every rho
    may carry more params than the pairing, which only meets some terms;
    the values are the same."""
    f = power([2, 2], Q) + power([3, 1], T * Q - 1)
    tail, g = _tail_of("weights", 4)
    got = _pleth_adjoint(f, tail, range(6))
    assert got.terms
    for mu in partitions_up_to(5):
        want = _pleth_pairing(f, mono(mu), g)
        assert got.terms.get(mu, 0) == want
        if want:
            assert set(want.params) <= set(got.terms[mu].params)
            assert got.terms[mu].caps == want.caps


def test_only_the_given_sizes_are_read_out():
    f = schur([2, 2]) + homog([2], T)
    tail, _ = _tail_of("weights", 4)
    full = _pleth_adjoint(f, tail, range(5))
    assert _pleth_adjoint(f, tail, []).terms == {}
    for n in range(5):
        part = _pleth_adjoint(f, tail, [n])
        assert part.terms == {mu: c for mu, c in full.terms.items()
                              if sum(mu) == n}


# -- the routes the kernel replaced ------------------------------------------


def _ref_endofunction_signature(n):
    alphabet = TruncatedSeries(_weight_alphabet(n, with_t0=False) + SymExpr(
        "h", {(): Fraction(1)}), n)
    params = tuple(f"t{j}" for j in range(1, n + 1))
    total = ParamPoly.const(0, params)
    for lam in partitions_of(n):
        total = total + _pleth_pairing(homog(lam), mono(lam), alphabet)
    return total


@pytest.mark.parametrize("n", range(1, 8))
def test_endofunction_trace_matches_the_pairing_loop(n):
    got, want = endofunction_signature(n), _ref_endofunction_signature(n)
    _same(got, want)
    assert [type(c) for c in got.terms.values()] == \
        [Fraction] * len(want.terms)


def _ref_pleth_columns(series, d):
    s = {"H": sigma_minus_one, "M": invert_sigma}[series](max(d, 1))
    tail = _tails(s.expr, s.cap)
    return {lam: _from_class_values(_vectors(
                (rho, _pair({d: _class_row("h", lam)},
                            _vectors(tail(rho).items())))
                for rho in partitions_up_to(d)), "h").terms
            for lam in partitions_of(d)}


@pytest.mark.parametrize("series", ["H", "M"])
def test_tilde_rows_keep_their_order_and_types(series):
    for d in range(0, 8):
        got, want = _pleth_columns(series, d), _ref_pleth_columns(series, d)
        assert list(got) == list(want)
        for lam, row in got.items():
            assert list(row.items()) == list(want[lam].items()), (d, lam)
            assert [type(c) for c in row.values()] == \
                [type(c) for c in want[lam].values()]
