"""Class functions as lists over ``partitions_of(n)``.

Class values and class sums are {n: list}, position i standing for the
i-th partition of n, and the readout is one dot product per coefficient
over the columns [b_lam]p_nu of the nonzero class sums.  The references
here are the partition-keyed code that layout replaced:
``_ref_class_row`` and ``_ref_class_values`` build dicts,
``_ref_from_class_sums`` scatters every class sum over its column with
``_add_scaled``, and the transition columns come from Newton's identity,
a count of colourings and the border-strip recursion of
``test_mn_columns``, not from the library kernels.  Other test modules
import ``_add_scaled`` from here.

Also here: the defining values of the tilde bases h~ and x~ at every
n <= 10, checked by eigenvalue evaluation.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from symcalc.coeffs import ParamPoly
from symcalc.innerpleth import adams, eigenvalue_eval, inner_plethysm
from symcalc.partitions import (class_position, partitions_of,
                                partitions_up_to, power_cycle_type,
                                power_map, z_value)
from symcalc.stable import (angle, character_polynomial, dangle,
                            stable_inner_plethysm, stable_kron, tilde_h,
                            tilde_x)
from symcalc.symfunc import (SymExpr, _class_row, _class_sums,
                             _class_values, _from_class_sums,
                             _from_class_values, _keyed, _m_column,
                             _mn_column, _p_in_h, _vectors, convert, elem,
                             foulkes_derivative, hall_scalar, homog,
                             internal, mono, multiply, omega, power, schur)
from test_mn_columns import _ref_char_value

MAKERS = {"s": schur, "h": homog, "e": elem, "p": power, "m": mono}
T = ParamPoly(("t", "u"), {(1, 0): 1})
U = ParamPoly(("t", "u"), {(0, 1): Fraction(1, 2), (1, 1): -3})


def _add_scaled(out, c, terms):
    """out += c * terms, for an iterable of (partition, coeff) pairs."""
    for nu, d in terms:
        prev = out.get(nu)
        cd = c * d
        out[nu] = cd if prev is None else prev + cd


# -- the partition-keyed references ---------------------------------------


def _ref_product(a, b):
    """Product of two dicts in a multiplicative basis: keys concatenate."""
    out = {}
    for lam, c in a.items():
        for mu, d in b.items():
            key = tuple(sorted(lam + mu, reverse=True))
            out[key] = out.get(key, 0) + c * d
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _ref_pk_in_h(k):
    """Newton: p_k = k h_k - sum_{i<k} h_{k-i} p_i."""
    acc = {(k,): k}
    for i in range(1, k):
        _add_scaled(acc, -1, _ref_product({(k - i,): 1},
                                          _ref_pk_in_h(i)).items())
    return {lam: c for lam, c in acc.items() if c}


@lru_cache(maxsize=None)
def _ref_p_in_h(nu):
    """{lam: [h_lam]p_nu}."""
    if not nu:
        return {(): 1}
    return _ref_product(_ref_pk_in_h(nu[0]), _ref_p_in_h(nu[1:]))


@lru_cache(maxsize=None)
def _ref_colourings(lam, nu):
    """<h_lam, p_nu> = [m_lam]p_nu: the ways to colour the cycles of nu
    with the parts of lam as colour sums."""
    def count(i, rest):
        if i == len(nu):
            return 1 if not any(rest) else 0
        return sum(count(i + 1, rest[:j] + (rest[j] - nu[i],) + rest[j + 1:])
                   for j in range(len(rest)) if rest[j] >= nu[i])
    return count(0, lam)


def _sign(nu):
    return -1 if (sum(nu) - len(nu)) % 2 else 1


@lru_cache(maxsize=None)
def _ref_class_row(basis, lam):
    """{nu: <b_lam, p_nu>}, nonzero values only."""
    n = sum(lam)
    if basis == "s":
        row = {nu: _ref_char_value(lam, nu) for nu in partitions_of(n)}
    elif basis == "m":
        row = {nu: _ref_p_in_h(nu).get(lam, 0) for nu in partitions_of(n)}
    elif basis == "p":
        row = {lam: z_value(lam)}
    else:
        sign = _sign if basis == "e" else (lambda nu: 1)
        row = {nu: sign(nu) * _ref_colourings(lam, nu)
               for nu in partitions_of(n)}
    return {nu: v for nu, v in row.items() if v}


def _as_int(c):
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def _over(c, d):
    return c * Fraction(1, d) if isinstance(c, ParamPoly) else Fraction(c, d)


def _ref_class_values(f):
    out = {}
    for lam, c in f.terms.items():
        _add_scaled(out, _as_int(c), _ref_class_row(f.basis, lam).items())
    return {nu: _as_int(v) for nu, v in out.items() if v}


def _size(nu):
    return factorial(sum(nu)) // z_value(nu)


def _ref_p_in_basis(target, nu):
    if target == "s":
        return [(lam, _ref_char_value(lam, nu))
                for lam in partitions_of(sum(nu)) if _ref_char_value(lam, nu)]
    if target in "he":
        sign = _sign(nu) if target == "e" else 1
        return [(lam, sign * v) for lam, v in _ref_p_in_h(nu).items()]
    if target == "m":
        return [(lam, _ref_colourings(lam, nu))
                for lam in partitions_of(sum(nu)) if _ref_colourings(lam, nu)]
    return [(nu, 1)]


def _ref_from_class_sums(sums, target, scale=1):
    """The dict-scatter readout: every class sum over its column."""
    out = {}
    for nu, c in sums.items():
        if c:
            _add_scaled(out, _as_int(c), _ref_p_in_basis(target, nu))
    return SymExpr(target, {lam: _over(v, scale * factorial(sum(lam)))
                            for lam, v in out.items() if v})


def _ref_from_class_values(chi, target, scale=1):
    return _ref_from_class_sums({nu: c * _size(nu) for nu, c in chi.items()},
                                target, scale)


def _ref_eval_power_sums(weights, value):
    total = 0
    for mu, w in weights:
        for k in mu:
            w = w * value(k)
        total = total + w
    return total


def _ref_p_weights(f):
    big = factorial(f.degree())
    return big, [(mu, c * (big // z_value(mu)))
                 for mu, c in _ref_class_values(f).items()]


def _ref_internal(f, g):
    a, b = _ref_class_values(f), _ref_class_values(g)
    return _ref_from_class_values({nu: c * b[nu] for nu, c in a.items()
                                   if nu in b}, f.basis)


def _ref_hall_scalar(f, g):
    a, b = _ref_class_values(f), _ref_class_values(g)
    return sum((_over(c * b[nu] * _size(nu), factorial(sum(nu)))
                for nu, c in a.items() if nu in b), Fraction(0))


def _ref_inner_plethysm(g, f):
    chi = _ref_class_values(f)
    big, weights = _ref_p_weights(g)
    out = {nu: _ref_eval_power_sums(
               weights, lambda k: chi.get(power_cycle_type(nu, k), 0))
           for nu in partitions_of(f.degree())}
    return _ref_from_class_values(out, f.basis, big)


def _ref_adams(f, k):
    chi = _ref_class_values(f)
    return _ref_from_class_values(
        {nu: chi[power_cycle_type(nu, k)] for nu in partitions_of(f.degree())
         if power_cycle_type(nu, k) in chi}, f.basis)


def _same(got, want):
    assert got.basis == want.basis
    assert got.terms == want.terms, (got, want)
    for lam, c in got.terms.items():
        w = want.terms[lam]
        assert type(c) is type(w), (lam, c, w)
        if isinstance(c, ParamPoly):
            assert c.params == w.params and c.caps == w.caps, (lam, c, w)


# -- the layout -------------------------------------------------------------


def test_class_rows_are_lists_over_partitions():
    for basis in MAKERS:
        for lam in partitions_up_to(8):
            row = _class_row(basis, lam)
            assert isinstance(row, list)
            assert len(row) == len(partitions_of(sum(lam)))
            assert dict(zip(partitions_of(sum(lam)), row)) == {
                nu: _ref_class_row(basis, lam).get(nu, 0)
                for nu in partitions_of(sum(lam))}, (basis, lam)
            assert all(type(v) is int for v in row)


def test_p_in_h_columns_match_newton():
    for nu in partitions_up_to(10):
        col = _p_in_h(nu)
        assert dict(zip(partitions_of(sum(nu)), col)) == {
            lam: _ref_p_in_h(nu).get(lam, 0)
            for lam in partitions_of(sum(nu))}, nu


def test_power_map_and_positions():
    for n in range(9):
        parts = partitions_of(n)
        assert [class_position(nu) for nu in parts] == \
            [(n, i) for i in range(len(parts))]
        for k in range(1, 6):
            assert [parts[i] for i in power_map(n, k)] == \
                [power_cycle_type(nu, k) for nu in parts]


def test_crossings_round_trip():
    rng = random.Random(5)
    pairs = [(nu, rng.randint(-3, 3)) for nu in partitions_up_to(6)]
    vecs = _vectors(pairs + pairs[:7])
    keyed = dict(_keyed(vecs))
    want = {}
    _add_scaled(want, 1, pairs + pairs[:7])
    assert keyed == {nu: v for nu, v in want.items() if v}
    assert all(len(v) == len(partitions_of(n)) for n, v in vecs.items())


# -- the readout against the dict scatter ------------------------------------


def _random_sums(rng, degrees, kind):
    """Partition-keyed class sums of the given kind at the given degrees."""
    def coeff():
        x = rng.randint(-40, 40)
        if kind == "int":
            return x
        if kind == "Fraction":
            return Fraction(x, rng.randint(1, 4))
        return T * x + U * rng.randint(-2, 2) + Fraction(x, 3)

    return {nu: c for n in degrees for nu in partitions_of(n)
            if rng.random() < 0.7 and (c := coeff())}


@pytest.mark.parametrize("target", sorted(MAKERS))
@pytest.mark.parametrize("kind", ["int", "Fraction", "ParamPoly"])
def test_readout_matches_the_dict_scatter(target, kind):
    rng = random.Random(f"{target}/{kind}")
    cases = [[n] for n in range(9)] + [[0, 2, 5], [1, 3, 4, 7], [6, 8]]
    for degrees in cases:
        for scale in (1, 3, 40):
            sums = _random_sums(rng, degrees, kind)
            got = _from_class_sums(_vectors(sums.items()), target, scale)
            _same(got, _ref_from_class_sums(sums, target, scale))
            got = _from_class_values(_vectors(sums.items()), target, scale)
            _same(got, _ref_from_class_values(sums, target, scale))


def _inputs(n):
    rng = random.Random(n)
    parts = partitions_of(n)
    out = [MAKERS[b](lam) for b in MAKERS for lam in parts[::3]]
    pick = rng.choice
    out += [schur(pick(parts)) * Fraction(2, 3) + homog(pick(parts)),
            elem(pick(parts)) * T + mono(pick(parts)) * U,
            power(pick(parts)) - schur(pick(parts)) * 5]
    return out


def test_class_values_match_the_dicts():
    for n in range(8):
        for f in _inputs(n) + [schur([2]) + homog([3, 1]) - 2]:
            assert dict(_keyed(_class_values(f))) == _ref_class_values(f), f
            sums = dict(_keyed(_class_sums(f)))
            assert sums == {nu: c * _size(nu)
                            for nu, c in _ref_class_values(f).items()}


@pytest.mark.parametrize("n", range(1, 8))
def test_pointwise_operations_match_the_dict_versions(n):
    fs = _inputs(n)
    rng = random.Random(f"pointwise/{n}")
    for f in fs:
        for g in rng.sample(fs, 4):
            _same(internal(f, g), _ref_internal(f, g))
            assert hall_scalar(f, g) == _ref_hall_scalar(f, g)
            assert type(hall_scalar(f, g)) is type(_ref_hall_scalar(f, g))
        for k in (1, 2, 3, 5):
            _same(adams(f, k), _ref_adams(f, k))
    gs = [schur([2]), homog([1, 1]) * Fraction(1, 2) + 3, power([2, 1]) * T,
          elem([3]) - power([1])]
    for g in gs:
        for f in fs[::2]:
            _same(inner_plethysm(g, f), _ref_inner_plethysm(g, f))


def test_inhomogeneous_pairing_and_product():
    f = schur([2, 1]) + homog([2]) * Fraction(1, 3) - 4
    g = elem([3]) + power([1, 1]) * 2 + mono([2])
    assert hall_scalar(f, g) == _ref_hall_scalar(f, g)
    for target in MAKERS:
        _same(convert(f, target),
              _ref_from_class_values(_ref_class_values(f), target))
        _same(internal(convert(f, target), g),
              _ref_internal(convert(f, target), g))


def test_no_public_call_mutates_a_memoized_row():
    lams = [lam for n in range(1, 6) for lam in partitions_of(n)]
    memos = ([(_class_row, (b, lam)) for b in MAKERS for lam in lams]
             + [(column, (nu,)) for column in (_p_in_h, _mn_column, _m_column)
                for nu in lams])
    held = [fn(*args) for fn, args in memos]
    before = [list(v) for v in held]
    for lam in lams:
        f = schur(lam)
        for b in MAKERS:
            convert(MAKERS[b](lam), "s")
            internal(MAKERS[b](lam), f)
            adams(MAKERS[b](lam), 2)
            omega(MAKERS[b](lam))
        inner_plethysm(power([2]) + 1, f)
        multiply(f, homog([1]))
        foulkes_derivative(schur([1]), f)
        hall_scalar(f, f)
        character_polynomial(lam)
        stable_kron(angle(lam[:2]), dangle([1]))
        stable_inner_plethysm(power([2]), dangle(lam[:1]))
    assert all(fn(*args) is v for (fn, args), v in zip(memos, held))
    assert [list(v) for v in held] == before


# -- the tilde bases at every n ---------------------------------------------


@pytest.mark.parametrize("k", range(5))
def test_tilde_h_and_x_take_their_defining_values(k):
    checked = 0
    for lam in partitions_of(k):
        th, tx = tilde_h(lam), tilde_x(lam)
        for n in range(11):
            for mu in partitions_of(n):
                if n < k:
                    want_h = want_x = 0
                else:
                    rest = homog([n - k] if n > k else [])
                    want_h = hall_scalar(multiply(rest, homog(lam)), power(mu))
                    want_x = hall_scalar(multiply(rest, schur(lam)), power(mu))
                assert eigenvalue_eval(th, mu) == want_h, (lam, mu)
                assert eigenvalue_eval(tx, mu) == want_x, (lam, mu)
                checked += 2
    assert checked == 2 * len(partitions_of(k)) * len(partitions_up_to(10))
