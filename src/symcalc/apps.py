"""Applications: dualities, zero-weight restrictions, weight-orbit
decompositions, endofunction counts, and pure braid group cohomology.

Zero-weight spaces and weight-orbit decompositions are one adjoint of
plethysm, f -> sum_mu <f, m_mu[g]> h_mu (``alphabets._pleth_adjoint``),
for g = h_k or a weight alphabet t_0 + t_1 h_1 + ... cut at the degree of
f; the answer is then read out in the basis asked for.  The endofunction
count is the trace of that map for g = 1 + t_1 h_1 + ..., read off the
same tail tree.

Pure braid cohomology is the Lehrer-Solomon decomposition
ch H^i(P_n) = omega sum_{lam |- n, len(lam) = n-i} prod_j e_{m_j}[Lie_j],
m_j the multiplicity of j in lam, summed in p and read out in s.  The
parts equal to 1 give e_{m_1}[Lie_1] = e_{m_1}, which omega turns into
h_{m_1}: over all n that is the sigma_1 factor of the stable character,
whose reduced part is the same sum over the lam with no part 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial

from .alphabets import (_pleth_adjoint, _pleth_pairing, _shared_tail,
                        lie_character, outer_plethysm, sigma_series)
from .coeffs import Coeff, ParamPoly
from .partitions import multiplicities, partitions_of
from .symfunc import SymExpr, convert, elem, homog, multiply, omega, schur


def littlewood_pair(f: SymExpr, g: SymExpr, cap: int) -> Coeff:
    """<f, g[sigma_1]>, which equals <f^[sigma_1 h_1], g> by duality.
    g[sigma_1] is paired on class sums."""
    if cap < f.degree():
        raise ValueError("cap must cover the degree of f")
    return _pleth_pairing(f, g, sigma_series("sigma", 1, cap))


def _zero_weight(f: SymExpr, k: int) -> SymExpr:
    """sum_{mu |- d/k} <f, m_mu[h_k]> h_mu for f of degree d; 0 when k does
    not divide d."""
    if k <= 0:
        raise ValueError("k must be positive")
    d = f.degree()
    return _pleth_adjoint(f, _shared_tail(homog([k]), d),
                          [] if d % k else [d // k])


def gay_restriction(lam, k: int) -> SymExpr:
    """Characteristic of the zero weight space of V_lam(C^n), |lam| = nk:
    the adjoint of f -> f[h_k] applied to s_lam."""
    return convert(_zero_weight(schur(lam), k), "s")


def gay_restriction_perm(lam, k: int) -> SymExpr:
    """h-version of the zero weight space, for S^lam = tensor product of
    symmetric powers: sum_mu <h_lam, m_mu[h_k]> h_mu."""
    return _zero_weight(homog(lam), k)


def _weight_alphabet(max_weight: int, with_t0: bool = True) -> SymExpr:
    """t_0 + t_1 h_1 + ... + t_w h_w with marker parameters t_j."""
    js = range(0 if with_t0 else 1, max_weight + 1)
    params = tuple(f"t{j}" for j in js)
    return SymExpr("h", {(j,) if j else (): ParamPoly(params, {tuple(
        int(i == j) for i in js): Fraction(1)}) for j in js})


def weight_orbit_decomposition(f: SymExpr, n: int, max_weight: int) -> SymExpr:
    """Restriction of a GL(n)-module to S_n, graded by weight orbits:
    sum_{mu |- n} <f, m_mu[t_0 + t_1 h_1 + ...]> h_mu, in the basis of f.

    The coefficient of the monomial t^nu is the characteristic of the sum
    of the weight spaces in the S_n-orbit of nu.  Setting every t_j = 1
    recovers the full branching rule.
    """
    if not f.is_homogeneous() or not f.terms:
        raise ValueError("weight decomposition requires homogeneous input")
    d = f.degree()   # weights above d are cut with the tail
    tail = _shared_tail(_weight_alphabet(min(max_weight, d)), d)
    return convert(_pleth_adjoint(f, tail, [n]), f.basis)


def stable_weight_orbits(f: SymExpr) -> StableChar:
    """Stable weight-orbit decomposition of a product of symmetric powers:
    sum_mu <h_lam, m_mu[t_1 h_1 + t_2 h_2 + ...]> <<mu>>, with the marker
    monomial t^nu recording the multiset nu of orbit weights."""
    if not f.is_homogeneous() or not f.terms:
        raise ValueError("stable weight decomposition requires homogeneous input")
    from .stable import StableChar
    d = f.degree()
    tail = _shared_tail(_weight_alphabet(d, with_t0=False), d)
    return StableChar(_pleth_adjoint(f, tail, range(d + 1)))


def endofunction_signature(n: int) -> ParamPoly:
    """sum_{lam |- n} <h_lam, m_lam[A]>, A = 1 + t_1 h_1 + ..., the weight-
    graded count of endofunction patterns on n points (t_j = 1: the total).
    By the Cauchy identity sum_lam h_lam (x) m_lam = sum_rho p_rho (x) p_rho
    / z_rho it is the trace sum_{rho |- n} [p_rho] p_rho[A], the class sum
    of p_rho[A] at rho over n!."""
    if n < 1:
        raise ValueError("n must be positive")
    tail = _shared_tail(_weight_alphabet(n, with_t0=False) + 1, n)
    trace = sum(tail(rho)[rho] for rho in partitions_of(n))
    return trace * Fraction(1, factorial(n))


def _lie_product(lam) -> SymExpr:
    """prod_j e_{m_j}[Lie_j] over the distinct parts j of lam, m_j their
    multiplicities, in p: the Lehrer-Solomon summand of lam."""
    return reduce(multiply, (outer_plethysm(convert(elem([m]), "p"),
                                            lie_character(j))
                             for j, m in multiplicities(lam).items()))


def braid_poincare(n: int) -> list:
    """ch H^*(P_n): entry i is the characteristic of H^i(P_n; C),
    omega sum_{lam |- n, len(lam) = n - i} prod_j e_{m_j}[Lie_j]
    (Lehrer-Solomon), in s."""
    if n < 1:
        raise ValueError("n must be positive")
    sums = [SymExpr("p") for _ in range(n)]
    for lam in partitions_of(n):
        sums[n - len(lam)] += _lie_product(lam)
    return [convert(omega(f), "s") for f in sums]


def stable_cohomology(i: int) -> StableChar:
    """The stable character of H^i(P_n; C) for all n at once.

    The Lehrer-Solomon sum of ``braid_poincare`` over the lam with no
    part 1 and |lam| - len(lam) = i (so |lam| <= 2i): the parts equal to
    1 contribute e_{m_1}, which omega turns into the sigma_1 factor.
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    from .stable import StableChar
    if i == 0:
        return StableChar(SymExpr.one("h"))
    total = SymExpr("p")
    for d in range(i + 1, 2 * i + 1):
        for lam in partitions_of(d):
            if lam[-1] > 1 and d - len(lam) == i:
                total += _lie_product(lam)
    return StableChar(convert(omega(total), "s"))
