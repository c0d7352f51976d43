"""The ring of stable characters of the symmetric groups.

A StableChar packages the series sigma_1 * f for a finite symmetric
function f (its "reduced part").  The family <lam> = sigma_1 s_lam(X-1)
collects the irreducible characters chi^{(n-|lam|, lam)} for all n, and
<<mu>> = sigma_1 h_mu the permutation characters h_{(n-|mu|, mu)}.

Stable (reduced) Kronecker products, character polynomials, the tilde
bases s~/h~/x~ with their transition matrices, coproducts and mixed
products all live here.  The classes own their operators: stable
characters add and scale with numbers (c is c<()>) and multiply only by
``stable_kron``; character polynomials take no arithmetic.

A stable character is a character polynomial: at cycle type beta,
sigma_1 f is V(beta) = sum_kappa chi_f(kappa) prod_i C(m_i(beta), n_i(kappa))
(``_binomial_value``).  So ``stable_kron`` multiplies on this binomial
basis, by
    C(m, p) C(m, q) = sum_j (p+q-j)! / (j! (p-j)! (q-j)!) C(m, p+q-j),
and chi_f is the forward difference of V on sub-multisets beta of kappa,
    chi_f(kappa) = sum_beta prod_i (-1)^(n_i(kappa)-n_i(beta))
                   C(n_i(kappa), n_i(beta)) V(beta)
(``_from_values``): what is pointwise at every n, such as inner
plethysm, is pointwise in the stable range.

The tilde layer is one linear map T: h_mu -> h~_mu and its inverse.
Let H = sigma_1 - 1 and M its plethystic inverse (H o M = p_1).  T^-1
is the adjoint of g -> g[H] and T that of g -> g[M], so on class values
    chi_{T^-1 f}(rho) = <f, p_rho[H]>,   chi_{T f}(rho) = <f, p_rho[M]>,
and h_lam = sum_mu c_lam^mu h~_mu with c_lam^mu = <h_lam, m_mu[H]>.
T^-1 f = f^[<<1>>], so the rows of T^-1 are read off the values
h_lam(Omega_beta) of h_lam^[<<1>>]; only T is an adjoint of plethysm.
The rows of both maps on h_lam (``_pleth_columns``) are memoized in
memory per degree; nothing in this module reads or writes the disk.
"""

from __future__ import annotations

from functools import lru_cache, partialmethod
from math import comb, factorial, prod

from .alphabets import _pleth_adjoint, _tails, invert_sigma, shift_alphabet
from .coeffs import NUMBERS, EvalError, as_fraction, coeff_frobenius
from .partitions import (canonical_key, horizontal_strip_supershapes,
                         multiplicities, partition, partitions_of,
                         partitions_up_to, power_cycle_type)
from .symfunc import (SymExpr, _as_int, _class_values, _eval_power_sums,
                      _from_class_values, _keyed, _p_weights, _vectors,
                      convert, foulkes_derivative, homog, schur)


class StableChar:
    """The series sigma_1 * reduced; equality is on reduced parts.  A
    number c adds as c<()> and scales; a symmetric function does neither."""

    __slots__ = ("reduced",)

    def __init__(self, reduced: SymExpr):
        self.reduced = reduced

    def __eq__(self, other):
        return isinstance(other, StableChar) and self.reduced == other.reduced

    def _sum(self, other, op):
        """op of the reduced parts, which keeps the left operand's basis."""
        if isinstance(other, NUMBERS):
            other = StableChar(SymExpr("s", {(): other}))
        elif isinstance(other, SymExpr):
            raise EvalError("cannot mix stable characters with symmetric "
                            "functions in a sum")
        elif not isinstance(other, StableChar):
            return NotImplemented
        return StableChar(op(self.reduced, other.reduced))

    __add__ = partialmethod(_sum, op=lambda a, b: a + b)
    __radd__ = partialmethod(_sum, op=lambda a, b: b + a)
    __sub__ = partialmethod(_sum, op=lambda a, b: a - b)
    __rsub__ = partialmethod(_sum, op=lambda a, b: b - a)

    def __mul__(self, c):
        if isinstance(c, StableChar):
            raise EvalError("use '#' for products of stable characters")
        if isinstance(c, SymExpr):
            raise EvalError("stable characters only scale by numbers")
        if not isinstance(c, NUMBERS):
            return NotImplemented
        return StableChar(self.reduced * c)

    __rmul__ = __mul__

    def __neg__(self):
        return StableChar(-self.reduced)

    def __repr__(self):
        return f"StableChar({self.reduced!r})"

    def to_json(self):
        return {"reduced": self.reduced.to_json()}


def angle(lam) -> StableChar:
    """<lam> = sigma_1 s_lam(X-1)."""
    return StableChar(shift_alphabet(schur(lam), -1))


def dangle(mu) -> StableChar:
    """<<mu>> = sigma_1 h_mu, the stable permutation character."""
    return StableChar(homog(mu))


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
    """Product of stable characters (pointwise on all S_n at once): the
    product of their character polynomials, read back in a's basis."""
    ya, yb = _keyed(_class_values(a.reduced)), _keyed(_class_values(b.reduced))
    chi = _vectors((kappa, x * y * c) for nu, x in ya for rho, y in yb
                   for kappa, c in _binomial_product(nu, rho))
    return StableChar(_from_class_values(chi, a.reduced.basis))


def _binomial_product(nu: tuple, rho: tuple) -> tuple:
    """prod_i C(m_i, n_i(nu)) C(m_i, n_i(rho)) on the binomial basis, as
    (kappa, int) pairs, one cycle length i at a time."""
    a, b = multiplicities(nu), multiplicities(rho)
    out = {(): 1}
    for i in sorted(set(a) | set(b), reverse=True):
        p, q = a.get(i, 0), b.get(i, 0)
        out = {kappa + (i,) * (p + q - j): c * factorial(p + q - j)
               // (factorial(j) * factorial(p - j) * factorial(q - j))
               for kappa, c in out.items() for j in range(min(p, q) + 1)}
    return tuple(out.items())


def _binomial_value(chi: dict, mults: dict):
    """sum_kappa chi(kappa) prod_i C(m_i, n_i(kappa)): sigma_1 f at cycle
    multiplicities {i: m_i}, for chi the class values of f."""
    total = 0
    for kappa, c in chi.items():
        for i, n_i in multiplicities(kappa).items():
            c = c * comb(mults.get(i, 0), n_i)
        total = total + c
    return total


@lru_cache(maxsize=None)
def _difference_weights(kappa: tuple) -> tuple:
    """(beta, w) over the sub-multisets beta of kappa, with
    w = prod_i (-1)^(n_i(kappa)-n_i(beta)) C(n_i(kappa), n_i(beta)): the
    inverse of ``_binomial_value``, chi(kappa) = sum w V(beta)."""
    out = (((), 1),)
    for i, n in multiplicities(kappa).items():
        out = tuple((beta + (i,) * j, w * (-1) ** (n - j) * comb(n, j))
                    for beta, w in out for j in range(n + 1))
    return out


def _from_values(value, d: int, scale: int = 1) -> SymExpr:
    """The reduced part, in h, of the stable character of degree <= d with
    the values value(beta) / scale at the cycle types beta |- <= d: their
    forward differences, read out once."""
    vals = {beta: value(beta) for beta in partitions_up_to(d)}
    return _from_class_values(
        {n: [sum(w * vals[beta] for beta, w in _difference_weights(kappa))
             for kappa in partitions_of(n)] for n in range(d + 1)}, "h", scale)


def to_angle_basis(sc: StableChar) -> dict:
    """Expand on the filtered family {s_nu(X-1)}: coefficients of <nu>.

    f = sum c_nu s_nu(X-1) exactly when f(X+1) = sum c_nu s_nu, so the
    coefficients are the Schur expansion of the reduced part shifted by +1.
    """
    return convert(shift_alphabet(sc.reduced, 1), "s").terms


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
    multiplicities are the n_i) to an integer coefficient; a
    non-integral one is an error."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        if any(c != int(c) for c in terms.values()):
            raise ArithmeticError(f"non-integer character polynomial: {terms}")
        self.terms = {partition(nu): int(c) for nu, c in terms.items() if c}

    def __eq__(self, other):
        return isinstance(other, CharPolynomial) and self.terms == other.terms

    def _no_arithmetic(self, other=None):
        raise EvalError("character polynomials take no '+', '-' or '*'")

    __neg__ = __add__ = __radd__ = __sub__ = __rsub__ = _no_arithmetic
    __mul__ = __rmul__ = _no_arithmetic

    def evaluate(self, mults: dict) -> int:
        """Value at cycle multiplicities {i: m_i}."""
        return _binomial_value(self.terms, mults)

    def to_json(self):
        return [{"nu": list(nu), "coeff": c}
                for nu, c in sorted(self.terms.items(), key=lambda t:
                                    canonical_key(t[0]))]

    def __repr__(self):
        return f"CharPolynomial({self.terms!r})"


def character_polynomial(lam) -> CharPolynomial:
    """Xi^lam, with Xi^lam(m_1(mu), m_2(mu), ...) = chi^{(n-|lam|,lam)}_mu.

    Coefficient of prod C(m_i, n_i(nu)) is the character value
    <s_lam(X-1), p_nu> = z_nu [p_nu] s_lam(X-1); these are integers.
    """
    return CharPolynomial(dict(_keyed(_class_values(
        shift_alphabet(schur(lam), -1)))))


# ---------------------------------------------------------------------------
# the tilde bases: every tilde function is T or T^-1

@lru_cache(maxsize=None)
def _pleth_columns(series: str, d: int) -> dict:
    """{lam: {mu: <h_lam, m_mu[S]>}} for lam |- d.  For S = H row lam is
    T^-1(h_lam) = h_lam^[<<1>>], ``_from_values`` of prod_j
    h_{lam_j}(Omega_beta), one count per beta for all rows.  For S = M it
    is T(h_lam), ``_pleth_adjoint`` of h_lam over |mu| <= d, all rows on
    one ``_tails`` tree of M, not ``_shared_tail``."""
    if series == "H":   # h_k(Omega_beta) = #{a >= 0: sum_i beta_i a_i = k}
        counts = {}
        for beta in partitions_up_to(d):
            h = counts[beta] = [1] + [0] * d
            for b in beta:
                for k in range(b, d + 1):
                    h[k] += h[k - b]
        return {lam: _from_values(
                    lambda beta: prod(counts[beta][j] for j in lam), d
                ).terms for lam in partitions_of(d)}
    s = invert_sigma(max(d, 1))   # invert_sigma needs cap >= 1
    tail = _tails(s.expr, s.cap)
    return {lam: _pleth_adjoint(homog(lam), tail, range(d + 1)).terms
            for lam in partitions_of(d)}


def _adjoint(f: SymExpr, series: str) -> SymExpr:
    """sum_mu <f, m_mu[S]> h_mu: T(f) for S = M, T^-1(f) for S = H."""
    out: dict = {}
    for lam, a in convert(f, "h").terms.items():   # int rows, summed as ints
        a = _as_int(a)
        for mu, c in _pleth_columns(series, sum(lam))[lam].items():
            out[mu] = out.get(mu, 0) + a * _as_int(c)
    return SymExpr("h", out)


def tilde_h(mu) -> SymExpr:
    """h~_mu = T(h_mu): the inner-plethysm preimage of <<mu>>.

    Equivalently h_lam = sum_mu c_lam^mu h~_mu, so that
    h~_mu[h_{n-1,1}]^ recovers the degree-n term of sigma_1 h_mu.
    """
    return _adjoint(homog(mu), "M")


@lru_cache(maxsize=None)
def tilde_s(lam) -> SymExpr:
    """s~_lam = T(s_lam(X-1)): the inner-plethysm preimage of <lam>."""
    return convert(_adjoint(shift_alphabet(schur(lam), -1), "M"), "s")


@lru_cache(maxsize=None)
def tilde_x(lam) -> SymExpr:
    """x~_lam = T(s_lam): the preimage of <<s_lam>> = sigma_1 s_lam."""
    return convert(_adjoint(schur(lam), "M"), "s")


def tilde_h_expand(f: SymExpr) -> dict:
    """Coefficients of f on the filtered family {h~_mu}: T^-1(f)."""
    return _adjoint(f, "H").terms


def stable_inner_plethysm(g: SymExpr, sc: StableChar) -> StableChar:
    """g^[sc]: apply the lambda-ring operation g to a whole stable family.

    Pointwise on cycle types: at beta it is g with p_k -> V_k(psi_k beta),
    V_k the value (``_binomial_value``) of sc with its parameters raised
    to the k-th power, as p_k raises them in outer plethysm.  Its reduced
    part has degree <= deg g * deg sc and is read off these values by
    ``_from_values``, with g's int weights of ``_p_weights`` over (deg g)!.
    """
    chi = _class_values(sc.reduced)
    big, weights = _p_weights(g)
    twisted = {k: {kappa: coeff_frobenius(c, k) for kappa, c in _keyed(chi)}
               for k in {k for mu, _ in weights for k in mu}}
    return StableChar(_from_values(
        lambda beta: _eval_power_sums(weights, lambda k: _binomial_value(
            twisted[k], multiplicities(power_cycle_type(beta, k)))),
        g.degree() * sc.reduced.degree(), big))


def transition(kind: str, degree_cap: int) -> dict:
    """Transition matrices between the classical and tilde bases.

    Entries are keyed (lam, mu) for |lam|, |mu| <= degree_cap:
      c: h_lam   = sum c_lam^mu h~_mu   (<h_lam, m_mu[sigma_1-1]>)
      t: h~_lam  = sum t_lam^mu h_mu    (row lam: T(h_lam), the inverse of c)
      a: s_lam   = sum a_lam^mu s~_mu   (row lam: T^-1(s_lam) on {<mu>})
      b: s~_lam  = sum b_lam^mu s_mu
    """
    parts = [p for p in partitions_up_to(degree_cap) if p]
    if kind in ("c", "t"):
        series = "H" if kind == "c" else "M"
        rows = ((lam, _pleth_columns(series, sum(lam))[lam]) for lam in parts)
    elif kind == "a":
        rows = ((lam, to_angle_basis(StableChar(_adjoint(schur(lam), "H"))))
                for lam in parts)
    elif kind == "b":
        rows = ((lam, tilde_s(lam).terms) for lam in parts)
    else:
        raise ValueError(f"unknown transition kind {kind!r}")
    return {(lam, mu): c for lam, row in rows for mu, c in row.items() if c}


def stable_coproduct_tilde_s(lam) -> dict:
    """Structure constants f^{mu nu}_lam of the coproduct of s~_lam.

    f^{mu nu}_lam = sum of c^alpha_{mu nu} over alpha with lam/alpha a
    horizontal strip = <s_mu s_nu, s_lam[X+1]>, by the Pieri identity
    s_lam[X+1] = sum_alpha s_alpha: the coefficient of s_nu in the skew
    D_{s_mu} s_lam[X+1], one per mu.
    """
    strips = convert(shift_alphabet(schur(partition(lam)), 1), "s")
    return {(mu, nu): int(c) for mu in partitions_up_to(strips.degree())
            for nu, c in foulkes_derivative(schur(mu), strips).terms.items()}


def mixed_product(lam, mu) -> dict:
    """l^nu_{lam mu} with <<lam>> * <mu> = sum l^nu <nu>."""
    return _integral_angle_coeffs(stable_kron(dangle(lam), angle(mu)),
                                  "mixed product")
