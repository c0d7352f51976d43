"""The ring of stable characters of the symmetric groups.

A StableChar packages the series sigma_1 * f for a finite symmetric
function f (its "reduced part").  The family <lam> = sigma_1 s_lam(X-1)
collects the irreducible characters chi^{(n-|lam|, lam)} for all n, and
<<mu>> = sigma_1 h_mu the permutation characters h_{(n-|mu|, mu)}.

Stable (reduced) Kronecker products, character polynomials, the tilde
bases s~/h~/x~ with their transition matrices, coproducts and mixed
products all live here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .alphabets import (outer_plethysm, shift_alphabet, sigma_minus_one,
                        sigma_series)
from .cache import cached_table
from .coeffs import Coeff, as_fraction, coeff_from_json, coeff_to_json
from .partitions import (canonical_key, horizontal_strip_subshapes,
                         horizontal_strip_supershapes, multiplicities,
                         partition, partitions_of, partitions_up_to, z_value)
from .symfunc import (SymExpr, _add_scaled, _class_values, convert,
                      foulkes_derivative, hall_scalar, homog, lr_coefficient,
                      mono, multiply, power, schur)


class StableChar:
    """The series sigma_1 * reduced; equality is on reduced parts."""

    __slots__ = ("reduced",)

    def __init__(self, reduced: SymExpr):
        self.reduced = reduced

    def __eq__(self, other):
        return (isinstance(other, StableChar)
                and convert(self.reduced, "s") == convert(other.reduced, "s"))

    def __add__(self, other):
        if not isinstance(other, StableChar):
            return NotImplemented
        return StableChar(self.reduced + other.reduced)

    def __sub__(self, other):
        if not isinstance(other, StableChar):
            return NotImplemented
        return StableChar(self.reduced - other.reduced)

    def __mul__(self, c):
        return StableChar(self.reduced * c)

    __rmul__ = __mul__

    def __neg__(self):
        return StableChar(-self.reduced)

    def __repr__(self):
        return f"StableChar({self.reduced!r})"

    def to_json(self):
        return {"reduced": self.reduced.to_json()}

    @classmethod
    def from_json(cls, data):
        return cls(SymExpr.from_json(data["reduced"]))


def angle(lam) -> StableChar:
    """<lam> = sigma_1 s_lam(X-1)."""
    return StableChar(shift_alphabet(schur(lam), -1))


def dangle(mu) -> StableChar:
    """<<mu>> = sigma_1 h_mu, the stable permutation character."""
    return StableChar(homog(mu))


def straighten_schur(alpha):
    """Normalize s_alpha for an arbitrary integer vector alpha.

    Returns (sign, partition), or None when the Jacobi-Trudi determinant
    vanishes (a repeated or negative shifted index).
    """
    alpha = tuple(alpha)
    k = len(alpha)
    beta = [alpha[i] + (k - 1 - i) for i in range(k)]
    if any(b < 0 for b in beta) or len(set(beta)) < k:
        return None
    sign = 1
    # parity of the permutation sorting beta in decreasing order
    for i in range(k):
        for j in range(i + 1, k):
            if beta[i] < beta[j]:
                sign = -sign
    beta.sort(reverse=True)
    lam = tuple(beta[i] - (k - 1 - i) for i in range(k))
    return sign, partition(x for x in lam if x)


def evaluate_at_n(sc: StableChar, n: int) -> SymExpr:
    """Degree-n component of sigma_1 * reduced, i.e. the character at S_n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: dict = {}
    for nu, c in convert(sc.reduced, "s").terms.items():
        if sum(nu) <= n:
            # Pieri: h_k s_nu = sum of s_lam over horizontal k-strips lam/nu
            for lam in horizontal_strip_supershapes(nu, n - sum(nu)):
                prev = out.get(lam)
                out[lam] = c if prev is None else prev + c
    return SymExpr("s", out)


def stable_kron(a: StableChar, b: StableChar) -> StableChar:
    """Product of stable characters (pointwise on all S_n at once).

    sigma_1 f * sigma_1 g = sigma_1 sum_alpha (1/z_alpha)
    D_{p_alpha}(f) D_{p_alpha}(g) p_alpha, a finite sum.
    """
    fa, fb = a.reduced, b.reduced
    cap = min(fa.degree(), fb.degree())
    total = SymExpr(fa.basis)
    for alpha in partitions_up_to(cap):
        da = foulkes_derivative(power(alpha), fa)
        if not da.terms:
            continue
        db = foulkes_derivative(power(alpha), fb)
        if not db.terms:
            continue
        piece = multiply(multiply(da, db), power(alpha))
        total = total + piece * Fraction(1, z_value(alpha))
    return StableChar(total)


def to_angle_basis(sc: StableChar) -> dict:
    """Expand on the filtered family {s_nu(X-1)}: coefficients of <nu>.

    f = sum c_nu s_nu(X-1) exactly when f(X+1) = sum c_nu s_nu, so the
    coefficients are the Schur expansion of the reduced part shifted by +1.
    """
    return convert(shift_alphabet(sc.reduced, 1), "s").terms


def from_angle_basis(coeffs: dict) -> StableChar:
    return StableChar(shift_alphabet(SymExpr("s", coeffs), -1))


def _integral_angle_coeffs(sc: StableChar, what: str) -> dict:
    """to_angle_basis(sc) as ints; a non-integer coefficient is an error."""
    out = {}
    for nu, c in to_angle_basis(sc).items():
        frac = as_fraction(c)
        if frac.denominator != 1:
            raise ArithmeticError(f"non-integer {what} {nu}: {c}")
        out[nu] = int(frac)
    return out


def reduced_kron(lam, mu) -> dict:
    """Reduced Kronecker coefficients: <lam>*<mu> = sum g^nu <nu>."""
    return _integral_angle_coeffs(stable_kron(angle(lam), angle(mu)),
                                  "reduced Kronecker")


class CharPolynomial:
    """A polynomial in cycle multiplicities m_1, m_2, ... stored on the
    binomial basis prod_i C(m_i, n_i): terms map a partition nu (whose
    multiplicities are the n_i) to an integer coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {partition(nu): int(c) for nu, c in terms.items() if c}

    def __eq__(self, other):
        return isinstance(other, CharPolynomial) and self.terms == other.terms

    def evaluate(self, mults: dict) -> int:
        """Value at cycle multiplicities {i: m_i}."""
        total = 0
        for nu, c in self.terms.items():
            val = c
            for i, n_i in multiplicities(nu).items():
                val *= comb(mults.get(i, 0), n_i)
            total += val
        return total

    def eval_cycle_type(self, mu) -> int:
        return self.evaluate(multiplicities(partition(mu)))

    def to_json(self):
        return [{"nu": list(nu), "coeff": c}
                for nu, c in sorted(self.terms.items(), key=lambda t:
                                    canonical_key(t[0]))]

    @classmethod
    def from_json(cls, data):
        return cls({tuple(entry["nu"]): entry["coeff"] for entry in data})

    def __repr__(self):
        return f"CharPolynomial({self.terms!r})"


def character_polynomial(lam) -> CharPolynomial:
    """Xi^lam, with Xi^lam(m_1(mu), m_2(mu), ...) = chi^{(n-|lam|,lam)}_mu.

    Coefficient of prod C(m_i, n_i(nu)) is the character value
    <s_lam(X-1), p_nu> = z_nu [p_nu] s_lam(X-1); these are integers.
    """
    terms = {}
    for nu, c in _class_values(shift_alphabet(schur(lam), -1)).items():
        val = as_fraction(c)
        if val.denominator != 1:
            raise ArithmeticError(f"non-integer character polynomial at {nu}")
        terms[nu] = int(val)
    return CharPolynomial(terms)


# ---------------------------------------------------------------------------
# the tilde bases

def _c_pairing(lam: tuple, mu: tuple) -> Coeff:
    """c_lam^mu = <h_lam, m_mu[sigma_1 - 1]>."""
    pleth = outer_plethysm(mono(mu), sigma_minus_one(sum(lam)))
    return hall_scalar(homog(lam), pleth.expr)


@lru_cache(maxsize=None)
def _c_coeff(lam: tuple, mu: tuple) -> Fraction:
    def compute():
        return {"value": coeff_to_json(_c_pairing(lam, mu))}

    key = "-".join(map(str, lam)) + "_" + "-".join(map(str, mu))
    data = cached_table("cmatrix", key, compute, lambda d: d, lambda d: d)
    return as_fraction(coeff_from_json(data["value"]))


@lru_cache(maxsize=None)
def tilde_h(mu) -> SymExpr:
    """h~_mu: the inner-plethysm preimage of <<mu>>.

    Defined by the unitriangular system h_lam = sum_mu c_lam^mu h~_mu,
    so that h~_mu[h_{n-1,1}]^ recovers the degree-n term of sigma_1 h_mu.
    """
    mu = partition(mu)
    result = homog(mu) if mu else SymExpr("h", {(): Fraction(1)})
    for d in range(1, sum(mu)):
        for nu in partitions_of(d):
            c = _c_coeff(mu, nu)
            if c:
                result = result - tilde_h(nu) * c
    return result


def _apply_tilde_h(f: SymExpr) -> SymExpr:
    """The linear substitution h_mu -> h~_mu."""
    fh = convert(f, "h")
    total = SymExpr("h")
    for mu, c in fh.terms.items():
        total = total + tilde_h(mu) * c
    return total


@lru_cache(maxsize=None)
def tilde_s(lam) -> SymExpr:
    """s~_lam: the inner-plethysm preimage of <lam>.

    By linearity this is the h-expansion of s_lam(X-1) with each h_mu
    replaced by h~_mu.
    """
    return convert(_apply_tilde_h(shift_alphabet(schur(lam), -1)), "s")


@lru_cache(maxsize=None)
def tilde_x(lam) -> SymExpr:
    """x~_lam: the preimage of <<s_lam>> = sigma_1 s_lam."""
    return convert(_apply_tilde_h(schur(lam)), "s")


def tilde_h_expand(f: SymExpr) -> dict:
    """Coefficients of f on the filtered family {h~_mu}.

    h_lam = h~_lam + sum_{0 < |mu| < |lam|} c_lam^mu h~_mu, so the
    coefficient of h~_mu is sum_lam [h_lam]f c_lam^mu.
    """
    out: dict = {}
    for lam, a in convert(f, "h").terms.items():
        out[lam] = out.get(lam, 0) + a
        for d in range(1, sum(lam)):
            _add_scaled(out, a, ((mu, c) for mu in partitions_of(d)
                                 if (c := _c_coeff(lam, mu))))
    return {mu: c for mu, c in out.items() if c}


def stable_inner_plethysm(g: SymExpr, sc: StableChar) -> StableChar:
    """g^[sc]: apply the lambda-ring operation g to a whole stable family.

    Route: write sc on the tilde basis (F = sum c_nu s~_nu satisfies
    F^[h_{n-1,1}] = evaluate_at_n(sc, n)), compose G = g o F by outer
    plethysm, and read G back through the h~ correspondence.
    """
    F = SymExpr("s")
    for nu, c in to_angle_basis(sc).items():
        F = F + tilde_s(nu) * c
    G = outer_plethysm(g, F)
    u = tilde_h_expand(G)
    return StableChar(SymExpr("h", u))


def transition(kind: str, degree_cap: int) -> dict:
    """Transition matrices between the classical and tilde bases.

    Entries are keyed (lam, mu) for |lam|, |mu| <= degree_cap:
      c: h_lam   = sum c_lam^mu h~_mu             (<h_lam, m_mu[sigma_1-1]>)
      a: s_lam   = sum a_lam^mu s~_mu   (<s_lam, sigma_1[sigma_1-1] s_mu[sigma_1-1]>)
      b: s~_lam  = sum b_lam^mu s_mu
    """
    parts = [p for p in partitions_up_to(degree_cap) if p]
    cols = partitions_up_to(degree_cap)
    out: dict = {}
    if kind == "c":
        for lam in parts:
            for mu in parts:
                if sum(mu) <= sum(lam):
                    c = _c_coeff(lam, mu)
                    if c:
                        out[(lam, mu)] = c
    elif kind == "a":
        sm1 = sigma_minus_one(degree_cap)
        sigma_tw = outer_plethysm(sigma_series("sigma", 1, degree_cap).expr,
                                  sm1)
        for mu in cols:
            # <s_lam, F> for every lam is the Schur expansion of F
            prod = convert((outer_plethysm(schur(mu), sm1) * sigma_tw).expr,
                           "s")
            for lam in parts:
                if sum(mu) <= sum(lam):
                    c = prod.coefficient(lam)
                    if c:
                        out[(lam, mu)] = c
    elif kind == "b":
        for lam in parts:
            for mu, c in tilde_s(lam).terms.items():
                out[(lam, mu)] = c
    else:
        raise ValueError(f"unknown transition kind {kind!r}")
    return out


def vector_partition_count(lam, mu) -> int:
    """Multisets of nonzero columns with row sums lam and column
    multiplicity multiset mu (matrices up to column permutation)."""
    lam, mu = partition(lam), partition(mu)
    if not lam:
        return 1 if not mu else 0
    k = len(lam)

    vectors = []

    def gen(i, prefix):
        if i == k:
            if any(prefix):
                vectors.append(prefix)
            return
        for v in range(lam[i] + 1):
            gen(i + 1, prefix + (v,))

    gen(0, ())

    @lru_cache(maxsize=None)
    def count(idx: int, rest: tuple, parts: tuple) -> int:
        if not parts:
            return 1 if not any(rest) else 0
        if idx == len(vectors):
            return 0
        total = count(idx + 1, rest, parts)
        vec = vectors[idx]
        for a in sorted(set(parts), reverse=True):
            if all(a * vec[i] <= rest[i] for i in range(k)):
                nxt = list(parts)
                nxt.remove(a)
                total += count(idx + 1,
                               tuple(rest[i] - a * vec[i] for i in range(k)),
                               tuple(nxt))
        return total

    return count(0, lam, mu)


def stable_coproduct_tilde_s(lam) -> dict:
    """Structure constants f^{mu nu}_lam of the coproduct of s~_lam:
    sum over alpha with lam/alpha a horizontal strip of c^alpha_{mu nu}."""
    lam = partition(lam)
    out: dict = {}
    for alpha in horizontal_strip_subshapes(lam):
        n = sum(alpha)
        for j in range(n + 1):
            for mu in partitions_of(j):
                for nu in partitions_of(n - j):
                    c = lr_coefficient(mu, nu, alpha)
                    if c:
                        out[(mu, nu)] = out.get((mu, nu), 0) + c
    return out


def mixed_product(lam, mu) -> dict:
    """l^nu_{lam mu} with <<lam>> * <mu> = sum l^nu <nu>."""
    return _integral_angle_coeffs(stable_kron(dangle(lam), angle(mu)),
                                  "mixed product")
