"""Applications: dualities, zero-weight restrictions, weight-orbit
decompositions, endofunction counts, and pure braid group cohomology.

Zero-weight spaces and weight-orbit decompositions are one adjoint of
plethysm, f -> sum_mu <f, m_mu[g]> h_mu (``alphabets._pleth_adjoint``),
for g = h_k or a weight alphabet t_0 + t_1 h_1 + ... cut at the degree of
f; the answer is then read out in the basis asked for.  The endofunction
count is the trace of that map for g = 1 + t_1 h_1 + ..., read off the
same tail tree.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .alphabets import (_mobius, _pleth_adjoint, _pleth_pairing, _shared_tail,
                        binomial_exp_product, lie_character, outer_plethysm,
                        sigma_series)
from .coeffs import Coeff, ParamPoly
from .partitions import partitions_of
from .stable import StableChar
from .symfunc import SymExpr, convert, elem, homog, multiply, power, schur


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


def _necklace_poly(i: int, cap: int) -> ParamPoly:
    """ell_i(t) = (1/i) sum_{d | i} mu(d) t^{i/d} in the parameter t."""
    terms = {}
    for d in range(1, i + 1):
        if i % d == 0:
            m = _mobius(d)
            if m:
                terms[(i // d,)] = terms.get((i // d,), 0) + Fraction(m, i)
    return ParamPoly(("t",), {e: c for e, c in terms.items() if c},
                     {"t": cap})


def braid_poincare(n: int) -> list:
    """ch_t H^*(P_n): entry i is the characteristic of H^i(P_n; C).

    The generating identity sum_i (-t)^i ch H^{n-i} = degree-n part of
    prod_{k>=1} (1+p_k)^{ell_k(t)} (t a binomial element) is re-indexed
    so that entry i matches H^i.
    """
    if n < 1:
        raise ValueError("n must be positive")
    exponents = [_necklace_poly(i, n) for i in range(1, n + 1)]
    series = binomial_exp_product(exponents, n).expr.homogeneous_component(n)
    series = convert(series, "s")
    out = [SymExpr("s") for _ in range(n)]
    for lam, c in series.terms.items():
        if not isinstance(c, ParamPoly):
            c = ParamPoly.const(c, ("t",))
        for exps, v in c.terms.items():
            j = exps[0] if exps else 0
            i = n - j
            if 0 <= i < n:
                out[i] = out[i] + schur(lam) * (v * Fraction(-1) ** i)
    return out


def stable_cohomology(i: int) -> StableChar:
    """The stable character of H^i(P_n; C) for all n at once.

    Coefficient of t^i in prod_{k>=2} sum_j (-1)^j t^{j(k-1)}
    e_j[ell_k(-X)], times (-1)^i, with sigma_1 factored out; the X-degree
    of the t^i coefficient is bounded by 2i.
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    if i == 0:
        return StableChar(SymExpr("h", {(): Fraction(1)}))
    xcap = 2 * i
    one = ParamPoly.const(1, ("t",), {"t": i})
    acc = SymExpr("p", {(): one})
    for k in range(2, i + 2):
        lk = outer_plethysm(lie_character(k), -power([1]))
        factor = SymExpr("p", {(): one})
        j = 1
        while j * (k - 1) <= i:
            ej = outer_plethysm(elem([j]), lk).truncate(xcap)
            marker = ParamPoly(("t",), {(j * (k - 1),): Fraction(-1) ** j},
                               {"t": i})
            factor = factor + convert(ej, "p") * marker
            j += 1
        acc = multiply(acc, factor, xcap)
    reduced = SymExpr("s")
    for lam, c in convert(acc, "s").terms.items():
        if isinstance(c, ParamPoly):
            v = c.terms.get((i,))
            if v:
                reduced = reduced + schur(lam) * (v * Fraction(-1) ** i)
    return StableChar(reduced)
