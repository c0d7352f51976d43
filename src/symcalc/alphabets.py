"""Plethysm and lambda-ring alphabet transforms.

Conventions: p_k applied to an expression substitutes p_j -> p_{jk} and
raises every formal parameter to the k-th power; rational scalars are
fixed (they are binomial elements), so f(X+-1) is f[p_1 +- 1] and f(-X)
is f[-p_1].  Infinite series (sigma_1, sigma_1-1, -L(-X)) are
``TruncatedSeries`` with a degree cap that only shrinks under arithmetic;
a product with one is ``multiply`` cut at the cap.  ``outer_plethysm``,
``_pleth_pairing`` and the adjoint of plethysm f -> sum_mu <f, m_mu[g]>
h_mu, ``_pleth_adjoint``, share one tail kernel, ``_tails``, and all but
the tilde rows the trees of the last 8 exact (g, cap) (``_shared_tail``).
The tails p_a[g] are ``symfunc._class_product``s, keyed by partitions:
they enter the lists of ``symfunc`` by ``_vectors``; pairings meet them keyed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .coeffs import Coeff, ParamPoly, coeff_frobenius
from .partitions import partitions_of
from .symfunc import (SymExpr, _class_product, _class_sums, _class_values,
                      _from_class_sums, _from_class_values, _keyed, _over,
                      _p_weights, _vectors, multiply, power)


class TruncatedSeries:
    """A symmetric-function series known exactly up to ``cap`` degree."""

    __slots__ = ("expr", "cap")

    def __init__(self, expr: SymExpr, cap: int):
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        self.expr = expr.truncate(cap)
        self.cap = cap

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.expr + other.expr,
                                   min(self.cap, other.cap))
        return TruncatedSeries(self.expr + other, self.cap)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self.expr, self.cap)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        cap = self.cap
        if isinstance(other, TruncatedSeries):
            other, cap = other.expr, min(cap, other.cap)
        if isinstance(other, SymExpr):
            return TruncatedSeries(multiply(self.expr, other, cap), cap)
        return TruncatedSeries(self.expr * other, cap)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.cap == other.cap and self.expr == other.expr
        return self.expr == other

    def __repr__(self):
        return f"TruncatedSeries({self.expr!r}, cap={self.cap})"


def outer_plethysm(f: SymExpr, g):
    """f o g by power-sum substitution.

    ``g`` may be a SymExpr or a TruncatedSeries; the result carries the
    series cap in the latter case.  Rational constant terms of g pass
    through p_k unchanged (lambda-ring convention for sigma_1 etc.).
    """
    sums, big, cap = _pleth_sums(f, g)
    result = _from_class_sums(sums, f.basis, big)
    return result if cap is None else TruncatedSeries(result, cap)


def _pleth_pairing(h: SymExpr, f: SymExpr, g) -> Coeff:
    """<h, f o g>, with no readout: the nonzero class values of h, keyed
    by partitions, against the class sums sum_a [p_a]f p_a[g] there."""
    g, cap = (g.expr, g.cap) if isinstance(g, TruncatedSeries) else (g, None)
    tail, (bf, weights) = _shared_tail(g, cap), _p_weights(f)
    tails, bh = [(w, tail(a)) for a, w in weights], factorial(h.degree())
    return _over(sum(c * (bh // factorial(sum(nu))) * s
                     for nu, c in _keyed(_class_values(h))
                     if (s := sum([w * t[nu] for w, t in tails if nu in t]))),
                 bf * bh)


def _pleth_sums(f: SymExpr, g):
    """(N, L, cap): L times the class sums N(nu) = |nu|! [p_nu](f o g),
    ints for integral f and g, and the cap of g (None for a SymExpr)."""
    g, cap = (g.expr, g.cap) if isinstance(g, TruncatedSeries) else (g, None)
    tail, (big, weights) = _shared_tail(g, cap), _p_weights(f)
    return _vectors((nu, w * v) for alpha, w in weights
                    for nu, v in tail(alpha).items()), big, cap


def _pleth_adjoint(f: SymExpr, tail, degrees) -> SymExpr:
    """sum_mu <f, m_mu[g]> h_mu over mu of the given sizes, g that of
    ``tail`` (over all mu of a size, sum <f, s_mu[g]> s_mu): one h readout
    of chi(rho) = <f, p_rho[g]>, as p_rho = sum_mu <p_rho, h_mu> m_mu."""
    big = factorial(f.degree())   # the lists hold big chi(rho), int sums
    chi = [(nu, c * (big // factorial(sum(nu))))
           for nu, c in _keyed(_class_values(f))]
    return _from_class_values({n: [sum([w * t[nu] for nu, w in chi if nu in t])
                                   for t in map(tail, partitions_of(n))]
                               for n in degrees}, "h", big)


def _shared_tail(g: SymExpr, cap):
    """The ``_tails`` of g cut at cap (None: uncut), through the memo."""
    g = g if cap is None else g.truncate(cap)
    return _shared_tails(g.basis, tuple((lam, c, _exact(c))
                                        for lam, c in g.terms.items()), cap)


def _exact(c):
    """Tells equal coefficients apart: type, ParamPoly params/terms/caps."""
    if isinstance(c, ParamPoly):
        return (c.params, tuple(c.terms.items()), tuple(c.caps.items()))
    return type(c)


@lru_cache(maxsize=8)
def _shared_tails(basis: str, terms: tuple, cap):
    return _tails(SymExpr(basis, {lam: c for lam, c, _ in terms}), cap)


def _tails(g: SymExpr, cap):
    """alpha -> the class sums of p_alpha[g] up to degree cap (None: all),
    memoized on the tails of alpha: the one tail kernel of plethysm.

    ``_shared_tail`` shares trees (``_shared_tails``, lru_cache, 8 trees)
    keyed by g's basis, its ordered (lam, c, ``_exact(c)``) and the cap:
    term order and coefficient types of g show in the results.  The tilde
    rows of T (``stable._pleth_columns`` on M; those of T^-1 are values,
    not tails) use each tree once and at degree 14 are the largest
    objects in the process, so in the memo they would only raise the
    peak memory; they build their own.  Tails are read-only.

    p_alpha[g] = p_k[g] p_alpha[1:][g] is ``_class_product``; p_k scales
    N(nu) by (k|nu|)!/|nu|!, and a p_k[g] that the cap leaves constant
    scales the tail instead of multiplying it.
    """
    gsums = _keyed(_class_sums(g))
    powers: dict = {}
    tails: dict = {(): {(): 1}}

    def tail(alpha):
        got = tails.get(alpha)
        if got is None:
            k = alpha[0]
            if k not in powers:   # p_k: N(nu) -> (k|nu|)!/|nu|! N(nu) at k nu
                powers[k] = {tuple(x * k for x in nu): coeff_frobenius(c, k)
                             * (factorial(k * sum(nu)) // factorial(sum(nu)))
                             for nu, c in gsums
                             if cap is None or k * sum(nu) <= cap}
            pk, rest = powers[k], tail(alpha[1:])
            if len(pk) == 1 and () in pk:
                c = pk[()]
                got = {nu: v for nu, d in rest.items() if (v := c * d)}
            else:
                got = _class_product(pk.items(), rest.items(), cap)
            tails[alpha] = got
        return got

    return tail


def shift_alphabet(f: SymExpr, c: int) -> SymExpr:
    """f(X+c) for c = +1 or -1: the plethysm f[p_1 + c], since p_k fixes
    the rational constant c."""
    if c not in (1, -1):
        raise ValueError("shift must be +1 or -1")
    return outer_plethysm(f, power([1]) + c)


def scale_alphabet(f: SymExpr, mode: str, qcap: int) -> SymExpr:
    """f[(1-q)X] or f[X/(1-q)], truncated at q-degree qcap.

    p_k picks up the factor (1-q^k), resp. its truncated geometric
    inverse 1 + q^k + q^{2k} + ..., so the class sum at nu is scaled by
    the product of the factors of its parts.
    """
    if qcap < 0:
        raise ValueError("qcap must be nonnegative")
    if mode not in ("(1-q)X", "X/(1-q)"):
        raise ValueError(f"unknown mode {mode!r}")
    q, one = ParamPoly.var("q", qcap), ParamPoly.const(1, ("q",), {"q": qcap})
    factor = {k: 1 - q ** k if mode == "(1-q)X"
              else sum(q ** j for j in range(0, qcap + 1, k))
              for k in range(1, f.degree() + 1)}
    return _from_class_sums(_vectors(
        (nu, c * prod(map(factor.get, nu), start=one))
        for nu, c in _keyed(_class_sums(f))), f.basis)


def sigma_series(kind: str = "sigma", sign: int = 1, cap: int = 6) -> TruncatedSeries:
    """sigma_1 = sum h_r, or lambda_{sign 1} = sum sign^r e_r, up to cap."""
    if kind == "sigma":
        terms = {(r,) if r else (): Fraction(1) for r in range(cap + 1)}
        return TruncatedSeries(SymExpr("h", terms), cap)
    if kind == "lambda":
        terms = {(r,) if r else (): Fraction(sign ** r)
                 for r in range(cap + 1)}
        return TruncatedSeries(SymExpr("e", terms), cap)
    raise ValueError(f"unknown series kind {kind!r}")


def sigma_minus_one(cap: int) -> TruncatedSeries:
    """sigma_1 - 1, the zero-constant-term variant used for plethysm."""
    terms = {(r,): Fraction(1) for r in range(1, cap + 1)}
    return TruncatedSeries(SymExpr("h", terms), cap)


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:   # Moebius inversion: sum_{d | n} mu(d) = [n = 1]
    return 1 if n == 1 else -sum(_mobius(d) for d in range(1, n // 2 + 1)
                                 if n % d == 0)


def lie_character(n: int) -> SymExpr:
    """Degree-n free Lie algebra character (1/n) sum_{d|n} mu(d) p_d^{n/d}."""
    if n < 1:
        raise ValueError("n must be positive")
    terms = {}
    for d in range(1, n + 1):
        if n % d == 0:
            mob = _mobius(d)
            if mob:
                terms[(d,) * (n // d)] = Fraction(mob, n)
    return SymExpr("p", terms)


def invert_sigma(cap: int) -> TruncatedSeries:
    """The series M with sigma_1 o M = 1 + p_1 through degree cap.

    In closed form M = sum_k mu(k)/k log(1 + p_k), mu the Moebius function
    (Moebius inversion of sigma_1 = exp sum_k p_k/k): the term p_k^j has
    coefficient mu(k) (-1)^(j+1) / (kj), for kj <= cap.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return TruncatedSeries(SymExpr("p", {
        (k,) * j: Fraction(_mobius(k) * (-1) ** (j + 1), k * j)
        for k in range(1, cap + 1) for j in range(1, cap // k + 1)}), cap)

