"""The integer class-value kernels against the Fraction kernels they
replaced, and larger-n oracles that the faster kernels make affordable.

The ``_ref_*`` functions are the earlier Fraction-per-term versions of
``hall_scalar``, ``internal``, ``adams``, ``inner_plethysm``,
``eigenvalue_eval``, ``outer_plethysm`` and ``littlewood_pair``.  They
work on p-basis expansions (``_to_p``/``_from_p``) with one Fraction per
term; results are compared term for term in the same basis.
"""

from fractions import Fraction

from symcalc.alphabets import (TruncatedSeries, invert_sigma, lie_character,
                               outer_plethysm, sigma_minus_one, sigma_series)
from symcalc.apps import _weight_alphabet, littlewood_pair
from symcalc.coeffs import ParamPoly, coeff_frobenius
from symcalc.innerpleth import (adams, eigenvalue_eval, inner_plethysm,
                                perm_char)
from symcalc.partitions import (multiplicities, partitions_of,
                                partitions_up_to, power_cycle_type, z_value)
from symcalc.stable import angle, evaluate_at_n, reduced_kron
from symcalc.symfunc import (BASES, SymExpr, elem, hall_scalar, homog,
                             internal, mono, power, schur)
from oracles import plain_product
from test_change_of_basis import _from_p, _to_p
from test_class_vectors import _add_scaled

MAKERS = {"s": schur, "h": homog, "e": elem, "p": power, "m": mono}
T = ParamPoly.var("t")


# -- the Fraction kernels, as references --------------------------------


def _ref_class_values(f):
    return {nu: c * z_value(nu) for nu, c in _to_p(f).items()}


def _ref_from_class_values(chi, target):
    return _from_p({nu: c * Fraction(1, z_value(nu))
                    for nu, c in chi.items() if c}, target)


def _ref_hall_scalar(f, g):
    a, b = _to_p(f), _to_p(g)
    total = Fraction(0)
    for nu, c in a.items():
        d = b.get(nu)
        if d:
            total = total + c * d * z_value(nu)
    return total


def _ref_internal(f, g):
    a, b = _ref_class_values(f), _ref_class_values(g)
    return _ref_from_class_values({nu: c * b[nu] for nu, c in a.items()
                                   if nu in b}, f.basis)


def _ref_adams(f, k):
    chi = _ref_class_values(f)
    out = {}
    for nu in partitions_of(f.degree()):
        src = power_cycle_type(nu, k)
        if src in chi:
            out[nu] = chi[src]
    return _ref_from_class_values(out, f.basis)


def _ref_inner_plethysm(g, f):
    chi = _ref_class_values(f)
    gp = _to_p(g)
    out = {}
    for nu in partitions_of(f.degree()):
        total = Fraction(0)
        for mu, c in gp.items():
            for k in mu:
                c = c * chi.get(power_cycle_type(nu, k), 0)
            total = total + c
        out[nu] = total
    return _ref_from_class_values(out, f.basis)


def _ref_eigenvalue_eval(f, mu):
    mults = multiplicities(mu)
    total = Fraction(0)
    for nu, c in _to_p(f).items():
        val = 1
        for r in nu:
            val *= sum(d * m for d, m in mults.items() if r % d == 0)
        if val:
            total = total + c * val
    return total


def _ref_pk_on_terms(pterms, k, cap=None):
    return {tuple(x * k for x in nu): coeff_frobenius(c, k)
            for nu, c in pterms.items()
            if cap is None or sum(nu) * k <= cap}


def _ref_outer_plethysm(f, g):
    if isinstance(g, TruncatedSeries):
        gp, cap = _to_p(g.expr), g.cap
    else:
        gp, cap = _to_p(g), None
    out = {}
    for alpha, c in _to_p(f).items():
        piece = plain_product((_ref_pk_on_terms(gp, k, cap).items()
                               for k in alpha), cap)
        _add_scaled(out, c, piece.items())
    result = _from_p({k: v for k, v in out.items() if v}, f.basis)
    return TruncatedSeries(result, cap) if cap is not None else result


def _ref_littlewood_pair(f, g, cap):
    return _ref_hall_scalar(
        f, _ref_outer_plethysm(g, sigma_series("sigma", 1, cap)).expr)


# -- comparison helpers --------------------------------------------------


def _is_coeff(c):
    return type(c) in (Fraction, ParamPoly)


def _same(got, ref):
    if isinstance(ref, TruncatedSeries):
        assert isinstance(got, TruncatedSeries) and got.cap == ref.cap
        got, ref = got.expr, ref.expr
    assert got.basis == ref.basis
    assert got.terms == ref.terms
    assert all(_is_coeff(c) for c in got.terms.values()), got.terms


def _sample(n):
    # every partition of small n; a spread of them at n = 5, 6
    parts = partitions_of(n)
    return parts if n <= 4 else parts[::2]


# -- differential tests --------------------------------------------------


def test_internal_matches_fraction_kernel():
    for n in range(7):
        for b in BASES:
            for c in BASES:
                for lam in _sample(n):
                    for mu in _sample(n)[::2]:
                        f, g = MAKERS[b](lam), MAKERS[c](mu)
                        _same(internal(f, g), _ref_internal(f, g))
    f = schur([2, 1], Fraction(1, 3)) + homog([3], T)
    g = elem([2, 1]) + power([3], Fraction(-2, 5))
    _same(internal(f, g), _ref_internal(f, g))


def test_hall_scalar_matches_fraction_kernel():
    for n in range(7):
        for b in BASES:
            for c in BASES:
                for lam in _sample(n):
                    for mu in _sample(n):
                        f, g = MAKERS[b](lam), MAKERS[c](mu)
                        got = hall_scalar(f, g)
                        assert _is_coeff(got), (b, c, lam, mu, got)
                        assert got == _ref_hall_scalar(f, g)
    # inhomogeneous, rational and parametric arguments
    f = schur([2, 1]) + homog([3, 1], Fraction(1, 2)) + 3
    g = power([2, 1]) + mono([2, 2], T) + SymExpr("s", {(): 5})
    for a, b in ((f, g), (g, f), (f, f), (g, g), (f, schur([5]))):
        got = hall_scalar(a, b)
        assert _is_coeff(got) and got == _ref_hall_scalar(a, b)


INNER_GS = [homog([2]), elem([3]), power([2, 1]), schur([2, 1]),
            homog([1]) + 3, SymExpr("s", {(): 2}), lie_character(3),
            homog([2], T) + power([3])]


def test_inner_plethysm_and_adams_match_fraction_kernels():
    for n in range(7):
        for b in BASES:
            for lam in _sample(n):
                f = MAKERS[b](lam)
                for k in (1, 2, 3):
                    _same(adams(f, k), _ref_adams(f, k))
                for g in INNER_GS:
                    _same(inner_plethysm(g, f), _ref_inner_plethysm(g, f))
    f = schur([3, 1], Fraction(1, 2)) + homog([2, 2], T)
    for g in INNER_GS:
        _same(inner_plethysm(g, f), _ref_inner_plethysm(g, f))
    _same(adams(f, 2), _ref_adams(f, 2))


def test_eigenvalue_eval_matches_fraction_kernel():
    fs = [MAKERS[b](lam) for b in BASES for n in range(6)
          for lam in _sample(n)]
    fs += [lie_character(4), homog([2], T) + power([3, 1]) + 1]
    for f in fs:
        for n in range(1, 6):
            for mu in partitions_of(n):
                got = eigenvalue_eval(f, mu)
                assert _is_coeff(got), (f, mu, got)
                assert got == _ref_eigenvalue_eval(f, mu)


def test_outer_plethysm_matches_fraction_kernel():
    series = [sigma_series("sigma", 1, 6), sigma_minus_one(6),
              invert_sigma(6)]
    for n in range(7):
        for b in BASES if n <= 4 else ("s", "h"):
            for lam in _sample(n):
                f = MAKERS[b](lam)
                for s in series:
                    _same(outer_plethysm(f, s), _ref_outer_plethysm(f, s))
                for mu in partitions_up_to(max(1, 6 // max(n, 1))):
                    if mu:
                        g = schur(mu)
                        _same(outer_plethysm(f, g),
                              _ref_outer_plethysm(f, g))
    # the parametric alphabet of the weight-orbit applications
    for w, with_t0 in ((3, True), (4, False)):
        alphabet = TruncatedSeries(_weight_alphabet(w, with_t0), 5)
        for n in range(1, 5):
            for lam in partitions_of(n):
                for f in (mono(lam), schur(lam)):
                    _same(outer_plethysm(f, alphabet),
                          _ref_outer_plethysm(f, alphabet))


def test_outer_plethysm_rational_and_inhomogeneous_f():
    gs = [schur([2]) + homog([1, 1]), schur([2, 1]) + 1,
          sigma_series("sigma", 1, 6), homog([1], T) + power([2])]
    fs = [power([2, 1], Fraction(1, 2)) + power([3]),
          power([1], Fraction(1, 2)),
          schur([2]) + homog([1]) + 3,
          elem([2, 1]) + mono([1], Fraction(-3, 7)) + SymExpr("s", {(): 1})]
    for f in fs:
        for g in gs:
            _same(outer_plethysm(f, g), _ref_outer_plethysm(f, g))


def test_littlewood_pair_matches_fraction_kernel():
    for n in range(1, 7):
        for d in range(1, 5):
            for mu in partitions_of(d):
                for nu in _sample(n):
                    for f, g in ((schur(mu), schur(nu)),
                                 (homog(mu), elem(nu)),
                                 (mono(mu), power(nu))):
                        got = littlewood_pair(f, g, d)
                        assert _is_coeff(got)
                        assert got == _ref_littlewood_pair(f, g, d)


# -- larger-n oracles ------------------------------------------------------


def test_littlewood_duality_degree_8_and_9():
    for n in (8, 9):
        f_char = perm_char(n)
        for d in range(1, 4):
            for mu in partitions_of(d):
                g = schur(mu)
                gf = inner_plethysm(g, f_char)
                for nu in partitions_of(n):
                    f = schur(nu)
                    assert hall_scalar(gf, f) == littlewood_pair(g, f, d), \
                        (mu, nu)


def test_reduced_kronecker_against_internal_degree_9_and_10():
    # sum_nu g^nu <nu> evaluated at n is s_{lam[n]} # s_{mu[n]}
    small = [p for p in partitions_up_to(3) if p]
    for lam in small:
        for mu in small:
            coeffs = reduced_kron(lam, mu)
            for n in (9, 10):
                lhs = SymExpr("s")
                for nu, c in coeffs.items():
                    lhs = lhs + evaluate_at_n(angle(nu), n) * c
                rhs = internal(schur((n - sum(lam),) + lam),
                               schur((n - sum(mu),) + mu))
                assert lhs == rhs, (lam, mu, n)
