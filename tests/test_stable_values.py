"""The stable layer read off values at cycle types.

A stable character sigma_1 F takes the value
V(beta) = sum_kappa chi_F(kappa) prod_i C(m_i(beta), n_i(kappa)) at cycle
type beta, and F is the forward difference of V.  These tests check the
two users of that inversion, ``stable_inner_plethysm`` and the rows of
T^-1 (``_pleth_columns("H", d)``), against their definitions at finite n
and against the routes they replaced: T, outer plethysm and T^-1 for the
stable inner plethysm, and the adjoint of plethysm by sigma_1 - 1 on its
tail tree for the rows.  The old Adams loop and the signed e columns are
kept here as references too.
"""

import os
from fractions import Fraction
from functools import lru_cache

import pytest

from symcalc.alphabets import (_pleth_adjoint, _tails, outer_plethysm,
                               sigma_minus_one)
from symcalc.apps import stable_weight_orbits
from symcalc.coeffs import ParamPoly, TruncationError, coeff_frobenius
from symcalc.innerpleth import adams, inner_plethysm
from symcalc.partitions import (partitions_of, partitions_up_to,
                                power_cycle_type)
from symcalc.stable import (StableChar, _adjoint, _pleth_columns, angle,
                            dangle, evaluate_at_n, stable_inner_plethysm,
                            tilde_h_expand)
from symcalc.symfunc import (SymExpr, _as_int, _class_values,
                             _from_class_values, _keyed, _p_in_h,
                             _vectors, convert, elem, homog, mono, power,
                             schur)

from oracles import map_coeffs
from test_class_vectors import _add_scaled
from test_cli import run_cli

# -- references: the routes replaced by the values at cycle types ---------


@lru_cache(maxsize=None)
def _ref_h_rows(d):
    """T^-1(h_lam) for lam |- d as the adjoint of g -> g[sigma_1 - 1]."""
    s = sigma_minus_one(max(d, 1))
    tail = _tails(s.expr, s.cap)
    return {lam: _pleth_adjoint(homog(lam), tail, range(d + 1)).terms
            for lam in partitions_of(d)}


def _ref_inverse_t(f):
    out = {}
    for lam, a in convert(f, "h").terms.items():
        row = _ref_h_rows(sum(lam))[lam].items()
        _add_scaled(out, _as_int(a), ((mu, _as_int(c)) for mu, c in row))
    return SymExpr("h", out)


def _ref_stable_inner_plethysm(g, sc):
    """T, an outer plethysm by g, and T^-1 on the tail rows."""
    return StableChar(_ref_inverse_t(outer_plethysm(g, _adjoint(sc.reduced,
                                                                "M"))))


def _ref_adams(f, k):
    chi = dict(_keyed(_class_values(f)))
    out = {}
    for nu in partitions_of(f.degree()):
        src = power_cycle_type(nu, k)
        if src in chi:
            out[nu] = chi[src]
    return _from_class_values(_vectors(out.items()), f.basis)


def _ref_p_in_e(nu):
    sign = -1 if (sum(nu) - len(nu)) % 2 else 1
    return tuple((lam, sign * v)
                 for lam, v in zip(partitions_of(sum(nu)), _p_in_h(nu))
                 if sign * v)


def _same(got, want):
    assert got.basis == want.basis
    assert list(got.terms.items()) == list(want.terms.items()), (got, want)
    assert [type(c) for c in got.terms.values()] == \
        [type(c) for c in want.terms.values()]


# -- definitions at finite n ----------------------------------------------

_G = [homog([2]), elem([2]), power([2]), schur([2, 1]), homog([3]),
      homog([1]) + 2]
_SC = ([mk(lam) for lam in partitions_up_to(2) for mk in (angle, dangle)]
       + [angle([1]) + dangle([1]) * 2])


@pytest.mark.parametrize("g", _G, ids=repr)
def test_stable_inner_plethysm_evaluates_to_finite_inner_plethysm(g):
    checked = 0
    for sc in _SC:
        stable = stable_inner_plethysm(g, sc)
        for n in range(1, 10):
            f = evaluate_at_n(sc, n)
            if not f.terms:
                continue
            assert evaluate_at_n(stable, n) == inner_plethysm(g, f), (sc, n)
            checked += 1
    assert checked >= 70


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("f", [homog([1]), homog([2]), homog([1, 1])],
                         ids=repr)
def test_stable_inner_plethysm_raises_parameters_to_the_kth_power(f, k):
    # finite inner plethysm treats parameters as scalars; the stable one
    # applies t -> t^k under p_k, as outer plethysm does
    sc = stable_weight_orbits(f)
    stable = stable_inner_plethysm(power([k]), sc)
    assert any(isinstance(c, ParamPoly) for c in stable.reduced.terms.values())
    for n in range(1, 8):
        at_n = map_coeffs(evaluate_at_n(sc, n),
                          lambda c: coeff_frobenius(c, k))
        assert evaluate_at_n(stable, n) == \
            inner_plethysm(power([k]), at_n), n


_T_INV_CASES = [(mk, lam) for mk in (homog, schur, power, elem)
                for lam in partitions_up_to(6)]


@pytest.mark.parametrize("mk, lam", _T_INV_CASES,
                         ids=[f"{mk.__name__}{list(lam)}"
                              for mk, lam in _T_INV_CASES])
def test_inverse_t_is_inner_plethysm_by_the_permutation_character(mk, lam):
    f = mk(lam)
    assert SymExpr("h", tilde_h_expand(f)) == \
        stable_inner_plethysm(f, dangle([1])).reduced


# -- the routes they replaced ---------------------------------------------


def test_h_rows_match_the_tail_route_degree_12():
    _pleth_columns.cache_clear()   # computed here, not read from a cache
    try:
        for d in range(13):
            got, want = _pleth_columns("H", d), _ref_h_rows(d)
            assert list(got) == list(want), d
            for lam, row in got.items():
                assert list(row.items()) == list(want[lam].items()), lam
                assert all(type(c) is Fraction for c in row.values()), lam
    finally:
        _pleth_columns.cache_clear()
        _ref_h_rows.cache_clear()


_CASES = ([(g, mk(lam)) for g in (homog([2]), schur([1, 1]), power([2]),
                                  homog([1]) + 2)
           for lam in partitions_up_to(3) for mk in (angle, dangle)]
          + [(g, mk(lam)) for g in (homog([3]), schur([2, 1]), power([3]))
             for lam in partitions_up_to(2) for mk in (angle, dangle)]
          + [(homog([2]) * Fraction(1, 2) + power([1, 1]) * 3,
              angle([2]) - dangle([1]) * 2),
             (homog([2]), stable_weight_orbits(homog([2]))),
             (power([2]) + homog([2]), stable_weight_orbits(homog([1, 1]))),
             (homog([2], ParamPoly.var("u")), angle([1])),
             (power([2]) + homog([1]), angle([1]) * ParamPoly.var("q", 2)),
             (homog([2]), StableChar(SymExpr("h", {(): Fraction(3)}))),
             (SymExpr("h", {(): Fraction(5)}), angle([2])),
             (homog([2]), StableChar(SymExpr("h")))])


@pytest.mark.parametrize("g, sc", _CASES, ids=[f"{g!r}|{sc!r}"
                                               for g, sc in _CASES])
def test_stable_inner_plethysm_matches_the_tilde_route(g, sc):
    got = stable_inner_plethysm(g, sc).reduced
    want = _ref_stable_inner_plethysm(g, sc).reduced
    assert got.basis == want.basis == "h"
    assert got.terms == want.terms
    assert {nu: type(c) for nu, c in got.terms.items()} == \
        {nu: type(c) for nu, c in want.terms.items()}


def test_stable_inner_plethysm_needs_no_tilde_rows(monkeypatch):
    import symcalc.alphabets
    import symcalc.stable

    def unused(*args):
        raise AssertionError("stable_inner_plethysm reached the tilde route")
    g, sc = schur([2, 1]), angle([2]) + dangle([1])
    want = _ref_stable_inner_plethysm(g, sc)
    for module, name in ((symcalc.stable, "_adjoint"),
                         (symcalc.stable, "_pleth_columns"),
                         (symcalc.alphabets, "outer_plethysm")):
        monkeypatch.setattr(module, name, unused)
    got = stable_inner_plethysm(g, sc)
    assert got.reduced.terms == want.reduced.terms


def test_only_the_power_sums_of_g_twist_capped_parameters():
    # q has cap 2: p_2 may raise it to q^2, p_3 may not, in either route
    sc = angle([1]) * ParamPoly.var("q", 2)
    for route in (stable_inner_plethysm, _ref_stable_inner_plethysm):
        assert route(power([2]), sc).reduced.terms
        with pytest.raises(TruncationError):
            route(power([3]), sc)


with open(os.path.join(os.path.dirname(__file__), "data",
                       "ihat_stable.txt")) as _lines:
    _IHAT = [line for line in _lines.read().splitlines() if line.strip()]


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
@pytest.mark.parametrize("expr", _IHAT)
def test_ihat_cli_output_matches_the_tilde_route(expr, fmt, monkeypatch):
    import symcalc.stable
    argv = ["eval", expr, "--format", fmt]
    got = run_cli(argv)
    monkeypatch.setattr(symcalc.stable, "stable_inner_plethysm",
                        _ref_stable_inner_plethysm)
    assert got == run_cli(argv)
    assert got[0] == 0 and got[1]


# -- satellites: adams as p_k^[f], e columns without a copy ---------------


_SCALARS = (Fraction(1), Fraction(-3, 2), ParamPoly.var("t") * 2 + 1)


@pytest.mark.parametrize("basis", ["s", "h", "e", "p", "m"])
def test_adams_is_inner_plethysm_by_p_k(basis):
    for lam in partitions_up_to(6):
        for c in _SCALARS:
            f = SymExpr(basis, {lam: c})
            if lam:
                f = f + SymExpr(basis, {partitions_of(sum(lam))[-1]: 2})
            for k in range(1, 5):
                _same(adams(f, k), _ref_adams(f, k))


def test_adams_keeps_its_errors():
    with pytest.raises(ValueError, match="k must be positive"):
        adams(schur([2]), 0)
    with pytest.raises(ValueError, match="adams requires a homogeneous"):
        adams(schur([2]) + schur([1]), 2)


def test_e_readout_of_power_sums_is_the_signed_h_column():
    for nu in partitions_up_to(10):
        assert convert(power(nu), "e").terms == \
            {lam: Fraction(v) for lam, v in _ref_p_in_e(nu)}, nu
    f = schur([3, 2, 1]) + mono([2, 2]) * Fraction(1, 3)
    assert convert(convert(f, "e"), "s") == convert(f, "s")
