"""The applications as one adjoint of plethysm, and the alphabet shift and
negation as outer plethysm, against the loops they replaced.

The ``_ref_*`` functions are the earlier code: four hand-written pairing
loops (an s-basis pairing for ``gay_restriction`` and for non-h input of
``weight_orbit_decomposition``, an (h, m) pairing otherwise), the
p-substitution ``p_k -> p_k + c`` of ``shift_alphabet`` and the sign
loop ``p_k -> -p_k`` used for ``stable_cohomology``.  Results are
compared term for term, coefficient types and JSON form included.
"""

from fractions import Fraction

from symcalc import apps
from symcalc.alphabets import (TruncatedSeries, lie_character,
                               outer_plethysm, shift_alphabet)
from symcalc.apps import (_weight_alphabet, gay_restriction,
                          gay_restriction_perm, stable_cohomology,
                          stable_weight_orbits, weight_orbit_decomposition)
from symcalc.coeffs import ParamPoly
from symcalc.partitions import partition, partitions_of, partitions_up_to
from symcalc.stable import StableChar
from symcalc.symfunc import (BASES, SymExpr, convert, elem, hall_scalar,
                             homog, mono, multiply, power, schur)
from oracles import plain_product
from test_change_of_basis import _from_p, _to_p
from test_class_vectors import _add_scaled

MAKERS = {"s": schur, "h": homog, "e": elem, "p": power, "m": mono}
T = ParamPoly.var("t")


# -- the earlier loops, as references ----------------------------------


def _ref_gay_restriction(lam, k):
    lam = partition(lam)
    d = sum(lam)
    total = SymExpr("s")
    if d % k:
        return total
    for mu in partitions_of(d // k):
        c = hall_scalar(schur(lam), outer_plethysm(schur(mu), homog([k])))
        if c:
            total = total + schur(mu) * c
    return total


def _ref_gay_restriction_perm(lam, k):
    lam = partition(lam)
    d = sum(lam)
    total = SymExpr("h")
    if d % k:
        return total
    for mu in partitions_of(d // k):
        c = hall_scalar(homog(lam), outer_plethysm(mono(mu), homog([k])))
        if c:
            total = total + homog(mu) * c
    return total


def _ref_weight_orbit_decomposition(f, n, max_weight):
    alphabet = _weight_alphabet(max_weight)
    d = f.degree()
    total = SymExpr(f.basis)
    for mu in partitions_of(n):
        if f.basis == "h":
            pleth = outer_plethysm(mono(mu),
                                   TruncatedSeries(alphabet, d)).expr
            c = hall_scalar(f, pleth)
            dual = homog(mu)
        else:
            pleth = outer_plethysm(schur(mu),
                                   TruncatedSeries(alphabet, d)).expr
            c = hall_scalar(convert(f, "s"), pleth)
            dual = schur(mu)
        if c:
            total = total + dual * c
    return total


def _ref_stable_weight_orbits(f):
    d = f.degree()
    alphabet = _weight_alphabet(d, with_t0=False)
    fh = convert(f, "h")
    total = SymExpr("h")
    for size in range(1, d + 1):
        for mu in partitions_of(size):
            pleth = outer_plethysm(mono(mu),
                                   TruncatedSeries(alphabet, d)).expr
            c = hall_scalar(fh, pleth)
            if c:
                total = total + homog(mu) * c
    return StableChar(total)


def _ref_shift_alphabet(f, c):
    out: dict = {}
    for nu, coef in _to_p(f).items():
        factors = ((((k,), Fraction(1)), ((), Fraction(c))) for k in nu)
        _add_scaled(out, coef, plain_product(factors).items())
    return _from_p({k: v for k, v in out.items() if v}, f.basis)


def _ref_minus_alphabet(f):
    return SymExpr("p", {nu: c * Fraction(-1) ** len(nu)
                         for nu, c in _to_p(f).items()})


def _ref_stable_cohomology(i):
    """The earlier ``stable_cohomology`` body, with the sign loop for
    f(-X); i >= 1."""
    xcap = 2 * i
    one = ParamPoly.const(1, ("t",), {"t": i})
    acc = SymExpr("p", {(): one})
    for k in range(2, i + 2):
        lk = _ref_minus_alphabet(lie_character(k))
        factor = SymExpr("p", {(): one})
        j = 1
        while j * (k - 1) <= i:
            ej = outer_plethysm(elem([j]), lk).truncate(xcap)
            marker = ParamPoly(("t",), {(j * (k - 1),): Fraction(-1) ** j},
                               {"t": i})
            factor = factor + convert(ej, "p") * marker
            j += 1
        acc = multiply(acc, factor).truncate(xcap)
    reduced = SymExpr("s")
    for lam, c in convert(acc, "s").terms.items():
        if isinstance(c, ParamPoly):
            v = c.terms.get((i,))
            if v:
                reduced = reduced + schur(lam) * (v * Fraction(-1) ** i)
    return StableChar(reduced)


# -- comparison ----------------------------------------------------------


def _same(got, ref):
    if isinstance(ref, StableChar):
        assert isinstance(got, StableChar)
        got, ref = got.reduced, ref.reduced
    assert got.basis == ref.basis
    assert got.terms == ref.terms
    assert {k: type(c) for k, c in got.terms.items()} == \
        {k: type(c) for k, c in ref.terms.items()}
    assert got.to_json() == ref.to_json()


# -- the applications ----------------------------------------------------


def test_gay_restrictions_match_pairing_loops():
    for lam in partitions_up_to(8):
        for k in range(1, 5):
            _same(gay_restriction(lam, k), _ref_gay_restriction(lam, k))
            _same(gay_restriction_perm(lam, k),
                  _ref_gay_restriction_perm(lam, k))


def test_weight_orbit_decomposition_matches_pairing_loops():
    for lam in partitions_up_to(5):
        if not lam:
            continue
        for b, make in MAKERS.items():
            f = make(lam)
            for n in range(1, 4):
                _same(weight_orbit_decomposition(f, n, sum(lam)),
                      _ref_weight_orbit_decomposition(f, n, sum(lam)))
    f = schur([2, 1], Fraction(2, 3)) + schur([3], T)
    for b in BASES:
        g = convert(f, b)
        _same(weight_orbit_decomposition(g, 2, 2),
              _ref_weight_orbit_decomposition(g, 2, 2))


def test_stable_weight_orbits_match_pairing_loop():
    for lam in partitions_up_to(4):
        if not lam:
            continue
        for make in (schur, homog, elem):
            f = make(lam)
            _same(stable_weight_orbits(f), _ref_stable_weight_orbits(f))


def test_stable_weight_orbits_of_a_constant_is_trivial():
    # the earlier loop started at |mu| = 1 and so returned 0 here
    assert _ref_stable_weight_orbits(homog([])).reduced.terms == {}
    assert stable_weight_orbits(homog([])) == StableChar(homog([]))
    assert stable_weight_orbits(schur([], 3)) == StableChar(homog([], 3))


# -- the alphabet shift and negation -------------------------------------


def _mixed_inputs():
    """Rational, ParamPoly and inhomogeneous expressions in every basis."""
    out = []
    for make in MAKERS.values():
        out += [
            make([2, 1], Fraction(1, 3)) + make([3], Fraction(-5, 7)),
            make([3, 1], T) + make([2, 2], Fraction(2, 5)) + make([4], T * T),
            make([3]) + make([2]) + make([1], Fraction(1, 2)) + make([], 4),
            make([4, 2], Fraction(1, 6)) + make([1], T) + make([], T - 1),
        ]
    return out


def test_shift_alphabet_matches_substitution():
    inputs = [make(lam) for lam in partitions_up_to(5)
              for make in MAKERS.values()]
    for f in inputs + _mixed_inputs():
        for c in (1, -1):
            _same(shift_alphabet(f, c), _ref_shift_alphabet(f, c))


def test_negation_matches_sign_loop():
    for k in range(1, 8):
        f = lie_character(k)
        _same(outer_plethysm(f, -power([1])), _ref_minus_alphabet(f))
    for f in _mixed_inputs():
        if f.basis == "p":
            _same(outer_plethysm(f, -power([1])), _ref_minus_alphabet(f))


def test_stable_cohomology_matches_sign_loop():
    assert not hasattr(apps, "_minus_alphabet")
    for i in range(1, 6):
        _same(stable_cohomology(i), _ref_stable_cohomology(i))
