"""The shared tail trees of plethysm, the int rows of the tilde adjoint and
the fast path of ParamPoly alignment, each against the route it shortcuts.

``_pleth_sums`` takes its tails from the bounded memo ``_shared_tails``;
``_fresh_sums`` is the same sum over a tree that ``_tails`` builds anew.
Sums are compared as ordered lists with their coefficient types, since
the order and types of g's terms show in those of the results.
"""

from fractions import Fraction

import pytest

from symcalc.alphabets import (TruncatedSeries, _pleth_sums, _shared_tails,
                               _tails, sigma_minus_one, sigma_series)
from symcalc.apps import (_weight_alphabet, endofunction_signature,
                          littlewood_pair, stable_weight_orbits)
from symcalc.coeffs import ParamPoly, _align, _param_key
from symcalc.partitions import partitions_of, partitions_up_to
from symcalc.stable import _adjoint, _pleth_columns
from symcalc.symfunc import (SymExpr, _keyed, _p_weights, _vectors, convert,
                             elem, homog, mono, power, schur)
from symcalc.tables import SECTIONS, render_table
from test_class_vectors import _add_scaled


def _fresh_sums(f, g):
    g, cap = (g.expr, g.cap) if isinstance(g, TruncatedSeries) else (g, None)
    tail = _tails(g, cap)
    big, weights = _p_weights(f)
    out = {}
    for alpha, w in weights:
        _add_scaled(out, w, tail(alpha).items())
    return _vectors(out.items()), big, cap


def _typed(sums):
    out, big, cap = sums
    return [(nu, c, type(c), getattr(c, "params", None),
             getattr(c, "caps", None)) for nu, c in _keyed(out)], big, cap


def _same_as_fresh(f, g):
    assert _typed(_pleth_sums(f, g)) == _typed(_fresh_sums(f, g)), (f, g)


FS = [mono([2]), mono([1, 1]), schur([2, 1]), homog([3]), elem([2, 1]),
      power([2, 1])]


@pytest.fixture(autouse=True)
def _empty_memo():
    _shared_tails.cache_clear()
    yield
    _shared_tails.cache_clear()


# -- the memo key ------------------------------------------------------------


def test_insertion_orders_of_one_g_keep_their_own_trees():
    ordered = SymExpr("p", {(1,): Fraction(1), (): Fraction(2)})
    flipped = SymExpr("p", {(): Fraction(2), (1,): Fraction(1)})
    assert ordered == flipped
    for cap in (2, 3):
        for f in FS:
            for g in (ordered, flipped, ordered):
                _same_as_fresh(f, TruncatedSeries(g, cap))
    assert _shared_tails.cache_info().currsize == 4


def test_fraction_and_param_poly_constants_keep_their_own_trees():
    frac = SymExpr("h", {(): Fraction(1), (1,): Fraction(1)})
    marked = SymExpr("h", {(): ParamPoly.const(1, ("t1",)),
                           (1,): ParamPoly.const(1, ("t1",))})
    assert frac == marked
    for f in FS:
        for g in (frac, marked, frac, marked):
            _same_as_fresh(f, g)
            _same_as_fresh(f, TruncatedSeries(g, 3))


def test_equal_param_polys_with_other_params_or_caps_keep_their_own_trees():
    t = ParamPoly(("t1",), {(1,): 1})
    wider = ParamPoly(("t1", "t2"), {(1, 0): 1})
    capped = ParamPoly(("t1",), {(1,): 1}, {"t1": 3})
    assert t == wider == capped
    gs = [SymExpr("h", {(1,): c, (2,): Fraction(1)}) for c in
          (t, wider, capped)]
    for f in FS:
        for g in gs + gs:
            _same_as_fresh(f, TruncatedSeries(g, 3))


def test_series_and_weight_alphabets_match_fresh_trees():
    gs = [sigma_series("sigma", 1, 4), sigma_minus_one(4),
          TruncatedSeries(_weight_alphabet(3), 4),
          TruncatedSeries(_weight_alphabet(4, with_t0=False)
                          + SymExpr("h", {(): Fraction(1)}), 4),
          power([1]) - 1, -power([1])]
    for f in [schur(lam) for lam in partitions_of(4)] + FS:
        for g in gs:
            _same_as_fresh(f, g)


# -- the bound ---------------------------------------------------------------


def test_memo_stays_within_its_bound():
    bound = _shared_tails.cache_info().maxsize
    assert bound is not None
    for section in SECTIONS:
        render_table(section, 8)
        assert _shared_tails.cache_info().currsize <= bound
    for cap in range(4, 4 + 2 * bound):
        for mu in partitions_of(3):
            littlewood_pair(schur(mu), schur([2, 1]), cap)
        assert _shared_tails.cache_info().currsize <= bound


def test_pairings_agree_after_cache_clear():
    def values():
        out = [littlewood_pair(schur(mu), schur(nu), 4)
               for mu in partitions_of(4) for nu in partitions_of(5)]
        out.append(endofunction_signature(4))
        return [(repr(v), type(v)) for v in out]

    first, again = values(), values()
    _shared_tails.cache_clear()
    assert first == again == values()


# -- int rows in the tilde adjoint -----------------------------------------


def _ref_adjoint(f, series):
    out = {}
    for lam, a in convert(f, "h").terms.items():
        _add_scaled(out, a, _pleth_columns(series, sum(lam))[lam].items())
    return SymExpr("h", out)


@pytest.mark.parametrize("series", ["H", "M"])
def test_adjoint_keeps_its_terms_and_types(series):
    fs = [homog([2, 1], Fraction(1, 3)) + schur([3]), schur([2, 2]) * 5,
          stable_weight_orbits(homog([2, 1])).reduced,
          stable_weight_orbits(homog([2])).reduced * Fraction(-1, 2)]
    fs += [schur(lam) for lam in partitions_up_to(5)]
    for f in fs:
        got, want = _adjoint(f, series), _ref_adjoint(f, series)
        assert list(got.terms.items()) == list(want.terms.items()), f
        assert [type(c) for c in got.terms.values()] == \
            [type(c) for c in want.terms.values()], f
        assert [getattr(c, "params", None) for c in got.terms.values()] == \
            [getattr(c, "params", None) for c in want.terms.values()], f


# -- the ParamPoly alignment ---------------------------------------------


def _ref_align(a, b):
    params = tuple(sorted(set(a.params) | set(b.params), key=_param_key))

    def remap(p):
        idx = [p.params.index(q) if q in p.params else None for q in params]
        return {tuple(e[i] if i is not None else 0 for i in idx): c
                for e, c in p.terms.items()}

    return params, (remap(a), remap(b))


def test_align_fast_path_matches_the_remap():
    polys = [ParamPoly(("t1", "t2"), {(1, 0): 2, (0, 3): Fraction(1, 2)}),
             ParamPoly(("t1", "t2"), {(2, 1): -1, (0, 0): 1}),
             ParamPoly(("t2", "t1"), {(1, 0): 3, (1, 1): 1}),
             ParamPoly(("t1",), {(4,): 1}),
             ParamPoly(("q", "t1"), {(1, 1): 5}),
             ParamPoly((), {(): Fraction(7, 3)})]
    for a in polys:
        for b in polys:
            params, (ta, tb), _ = _align(a, b)
            want_params, (wa, wb) = _ref_align(a, b)
            assert params == want_params
            assert list(ta.items()) == list(wa.items())
            assert list(tb.items()) == list(wb.items())


def test_arithmetic_on_aligned_operands_leaves_them_unchanged():
    a = ParamPoly(("t1", "t2"), {(1, 0): 2, (0, 1): 1})
    b = ParamPoly(("t1", "t2"), {(1, 0): -2, (1, 1): 1})
    before = (dict(a.terms), dict(b.terms))
    assert (a + b).terms == {(0, 1): 1, (1, 1): 1}
    assert (a * b).terms == {(2, 0): -4, (2, 1): 2, (1, 1): -2, (1, 2): 1}
    assert (dict(a.terms), dict(b.terms)) == before
