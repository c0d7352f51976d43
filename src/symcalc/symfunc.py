"""The ring of symmetric functions with exact coefficients.

``SymExpr`` is a sparse, basis-tagged expansion: a map from partitions to
coefficients in one of the bases m/e/h/p/s.  Inhomogeneous expressions are
first-class.

A degree-n component is also a class function of S_n, with values
chi_f(nu) = <f, p_nu> = z_nu [p_nu]f on the cycle types nu, and class
sums N(nu) = chi_f(nu) |C_nu| = |nu|! [p_nu]f, with |C_nu| = n!/z_nu.
Both are ints for integral f.  Every change of basis goes through them:

* in: chi_f is a sum of integer class rows <b_lam, p_nu> (``_class_row``).
  By Hall duality such a value is the coefficient of the dual basis
  element in p_nu: the MN character chi^lam(nu) for s, z_lam for p,
  [h_lam]p_nu for m (Newton's identity, p_k = k h_k - sum h_{k-i} p_i).
  For h the class sums of h_k are all |C_nu| and multiply as class sums;
  e is h with the omega sign.
* out: one readout, [b_lam]f = sum_nu N(nu) [b_lam]p_nu / n!, an int sum
  over the integer columns of p_nu (MN characters for s, [h_lam]p_nu for
  h, with the omega sign for e, <p_nu, h_lam> for m) with one division
  per coefficient (``_from_class_sums``).

Whole-character operations (internal product, Adams operations, inner
plethysm) are pointwise on the class values; the Hall pairing ``_pair``
sums class values against class sums, one division per degree.  Class
sums are the one internal form: a product weighs N_f(lam) N_g(mu) at
lam u mu by C(|lam|+|mu|, |lam|), omega is the sign (-1)^(|nu|-len(nu))
on N(nu), and the skew is chi_{D_f g}(beta) = <g, f p_beta> =
sum_a [p_a]f chi_g(a u beta).  One kernel, ``_p_mult_basis``, makes the
products of class sums and in the bases p, h and e.  The MN characters
at nu are one memo for all lam, ``_mn_column(nu)``, keyed by partitions;
``char_value``, ``character_table``, the s class rows and the s readout
all read it in place.  Transition data is memoized in memory only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .coeffs import (Coeff, ParamPoly, coeff_from_json, coeff_subs,
                     coeff_to_json)
from .partitions import (canonical_key, conjugate, multiplicities, partition,
                         partitions_of, z_value)

BASES = ("m", "e", "h", "p", "s")


class SymExpr:
    """Sparse basis-tagged symmetric function."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        clean: dict = {}
        for lam, c in (terms or {}).items():
            if isinstance(c, int):
                c = Fraction(c)
            if c:
                lam = tuple(lam)
                prev = clean.get(lam)
                c = c if prev is None else prev + c
                if c:
                    clean[lam] = c
                else:
                    del clean[lam]
        self.terms = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, basis: str = "s") -> "SymExpr":
        return cls(basis)

    @classmethod
    def one(cls, basis: str = "s") -> "SymExpr":
        return cls(basis, {(): Fraction(1)})

    # -- inspection ----------------------------------------------------

    def degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        return len({sum(lam) for lam in self.terms}) <= 1

    def homogeneous_component(self, d: int) -> "SymExpr":
        return SymExpr(self.basis,
                       {lam: c for lam, c in self.terms.items()
                        if sum(lam) == d})

    def truncate(self, cap: int) -> "SymExpr":
        return SymExpr(self.basis,
                       {lam: c for lam, c in self.terms.items()
                        if sum(lam) <= cap})

    def coefficient(self, lam) -> Coeff:
        return self.terms.get(tuple(lam), Fraction(0))

    def map_coeffs(self, fn) -> "SymExpr":
        return SymExpr(self.basis, {lam: fn(c) for lam, c in self.terms.items()})

    def subs_params(self, values: dict) -> "SymExpr":
        return self.map_coeffs(lambda c: coeff_subs(c, values))

    # -- ring structure --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.basis)
        if other is NotImplemented:
            return NotImplemented
        if other.basis != self.basis:
            other = other.in_basis(self.basis)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymExpr(self.basis, out)

    __radd__ = __add__

    def __neg__(self):
        return SymExpr(self.basis, {lam: -c for lam, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other, self.basis)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SymExpr):
            return multiply(self, other)
        return SymExpr(self.basis,
                       {lam: c * other for lam, c in self.terms.items()})

    __rmul__ = __mul__

    def in_basis(self, target: str) -> "SymExpr":
        if target == self.basis:
            return self
        return _from_class_sums(_class_sums(self), target)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ParamPoly)):
            other = _coerce(other, self.basis)
        if not isinstance(other, SymExpr):
            return NotImplemented
        if other.basis == self.basis:
            return self.terms == other.terms
        return _class_values(self) == _class_values(other)

    def __hash__(self):
        raise TypeError("SymExpr is unhashable")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam in sorted(self.terms, key=canonical_key):
            c = self.terms[lam]
            name = f"{self.basis}{list(lam)}"
            bits.append(f"{name}" if c == 1 else f"({c})*{name}")
        return " + ".join(bits)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda kv: canonical_key(kv[0]))
        return {"basis": self.basis,
                "terms": [{"part": list(lam), "coeff": coeff_to_json(c)}
                          for lam, c in items]}

    @classmethod
    def from_json(cls, data: dict) -> "SymExpr":
        return cls(data["basis"],
                   {tuple(t["part"]): coeff_from_json(t["coeff"])
                    for t in data["terms"]})


def _coerce(x, basis: str):
    if isinstance(x, SymExpr):
        return x
    if isinstance(x, (int, Fraction, ParamPoly)):
        return SymExpr(basis, {(): x})
    return NotImplemented


# -- friendly constructors ---------------------------------------------


def schur(lam, coeff=1) -> SymExpr:
    return SymExpr("s", {partition(lam): coeff})


def homog(lam, coeff=1) -> SymExpr:
    return SymExpr("h", {partition(lam): coeff})


def elem(lam, coeff=1) -> SymExpr:
    return SymExpr("e", {partition(lam): coeff})


def power(lam, coeff=1) -> SymExpr:
    return SymExpr("p", {partition(lam): coeff})


def mono(lam, coeff=1) -> SymExpr:
    return SymExpr("m", {partition(lam): coeff})


# -- transition data ----------------------------------------------------


def _add_scaled(out: dict, c, terms) -> None:
    """out += c * terms, for an iterable of (partition, coeff) pairs."""
    for nu, d in terms:
        prev = out.get(nu)
        cd = c * d
        out[nu] = cd if prev is None else prev + cd


def _as_int(c):
    """An integral Fraction as an int, so that sums over cycle types run
    in int arithmetic; anything else unchanged."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def _over(c, d: int) -> Coeff:
    """c / d for an int, Fraction or ParamPoly c: ends an integer sum."""
    return c * Fraction(1, d) if isinstance(c, ParamPoly) else Fraction(c, d)


def _p_mult_basis(factors, cap=None, binomial=False) -> dict:
    """Product of expansions in a multiplicative basis (p, h or e).

    Each factor is an iterable of (partition, coeff) pairs; keys
    concatenate and sort.  With ``cap``, terms above that degree are
    dropped as they arise.  With ``binomial``, the factors are p-basis
    class sums N(nu) = |nu|! [p_nu]F, and the product of the terms at
    lam and mu carries the weight C(|lam| + |mu|, |lam|).
    """
    acc = {(): 1}
    for terms in factors:
        terms = [(mu, sum(mu), d) for mu, d in terms]
        nxt: dict = {}
        for lam, c in acc.items():
            a = sum(lam)
            for mu, b, d in terms:
                if cap is not None and a + b > cap:
                    continue
                key = tuple(sorted(lam + mu, reverse=True)) if lam else mu
                cd = c * d
                if binomial and a:
                    cd = cd * comb(a + b, a)
                prev = nxt.get(key)
                nxt[key] = cd if prev is None else prev + cd
        acc = {k: v for k, v in nxt.items() if v}
    return acc


@lru_cache(maxsize=None)
def _beads(lam: tuple) -> int:
    """The abacus mask of lam: a bead at lam_i + len(lam) - 1 - i."""
    return sum(1 << (x + len(lam) - 1 - i) for i, x in enumerate(lam))


@lru_cache(maxsize=None)
def _shape(mask: int) -> tuple:
    """The partition with abacus mask ``mask``, the inverse of ``_beads``."""
    beads = [b for b in range(mask.bit_length()) if mask >> b & 1]
    return tuple(b - i for i, b in enumerate(beads))[::-1]


@lru_cache(maxsize=None)
def _mn_column(mu: tuple) -> dict:
    """{lam: chi^lam(mu)} over lam |- |mu|, nonzero values only: the one
    store of MN characters.  By MN, the column of mu[1:] times p_r,
    r = mu[0], on the abacus: with r beads added below the mask of lam,
    each border r-strip moves a bead b to a free b + r, with the sign of
    the beads between; the min(b, r) low beads left drop out."""
    if not mu:
        return {(): 1}
    r, out = mu[0], {}
    for lam, v in _mn_column(mu[1:]).items():
        m = (_beads(lam) << r) | ((1 << r) - 1)
        movable = m & ~(m >> r)
        while movable:
            low = movable & -movable
            movable ^= low
            new = (m ^ low ^ (low << r)) >> min(low.bit_length() - 1, r)
            odd = (m & ((low << r) - (low << 1))).bit_count() & 1
            out[new] = out.get(new, 0) + (-v if odd else v)
    return {_shape(k): v for k, v in out.items() if v}


def char_value(lam: tuple, mu: tuple) -> int:
    """chi^lam(mu), read from the MN column of mu; 0 if lam = () != mu."""
    if lam and sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: {lam} vs {mu}")
    return _mn_column(mu).get(lam, 0)


def character_table(n: int) -> dict:
    """Full character table of degree n: (lam, mu) -> integer, in
    partitions_of(n) order, read from the MN columns."""
    parts = partitions_of(n)
    cols = [(mu, _mn_column(mu)) for mu in parts]
    return {(lam, mu): col.get(lam, 0) for lam in parts for mu, col in cols}


@lru_cache(maxsize=None)
def _pk_in_h(k: int):
    """h-expansion of p_k via Newton: p_k = k h_k - sum_{i<k} h_{k-i} p_i."""
    acc = {(k,): k}
    for i in range(1, k):
        h = (((k - i,), -1),)
        _add_scaled(acc, 1, _p_mult_basis((h, _pk_in_h(i))).items())
    return tuple((lam, c) for lam, c in acc.items() if c)


@lru_cache(maxsize=None)
def _p_in_h(nu: tuple) -> dict:
    """{lam: [h_lam]p_nu}, ints: h is multiplicative, so a product over
    the parts of nu."""
    if not nu:
        return {(): 1}
    return _p_mult_basis((_pk_in_h(nu[0]), _p_in_h(nu[1:]).items()))


def _omega_sign(nu: tuple) -> int:
    """omega(p_nu) = (-1)^(|nu| - len(nu)) p_nu."""
    return -1 if (sum(nu) - len(nu)) % 2 else 1


# -- basis conversion ---------------------------------------------------


def convert(f: SymExpr, target: str) -> SymExpr:
    return f.in_basis(target)


@lru_cache(maxsize=None)
def _class_size(nu: tuple) -> int:
    """|C_nu| = |nu|! / z_nu, the number of permutations of cycle type nu."""
    return factorial(sum(nu)) // z_value(nu)


@lru_cache(maxsize=None)
def _class_row(basis: str, lam: tuple) -> dict:
    """{nu: <b_lam, p_nu>}, the nonzero class values of one basis element
    as ints.  By Hall duality <b_lam, p_nu> is the coefficient of b*_lam
    in p_nu for the dual basis b*: chi^lam(nu) for s, z_lam for p,
    [h_lam]p_nu for m.  For h it is N(nu) / |C_nu|, where the class sums
    N of h_lam are the product of those of its parts, N_{h_k}(nu) = |C_nu|;
    e is h with the omega sign."""
    n = sum(lam)
    if basis == "s":
        row = ((nu, _mn_column(nu).get(lam, 0)) for nu in partitions_of(n))
    elif basis == "m":
        row = ((nu, _p_in_h(nu).get(lam, 0)) for nu in partitions_of(n))
    elif basis == "p":
        row = ((lam, z_value(lam)),)
    elif not lam:
        row = (((), 1),)
    else:
        head = [(nu, _class_size(nu)) for nu in partitions_of(lam[0])]
        tail = [(nu, v * _class_size(nu))
                for nu, v in _class_row("h", lam[1:]).items()]
        sums = _p_mult_basis((head, tail), binomial=True)
        row = ((nu, sums[nu] // _class_size(nu))
               for nu in partitions_of(n) if nu in sums)
        if basis == "e":
            row = ((nu, _omega_sign(nu) * v) for nu, v in row)
    return {nu: v for nu, v in row if v}


def _class_values(f: SymExpr) -> dict:
    """Character values chi_f(nu) = <f, p_nu> = z_nu [p_nu]f, keyed by
    cycle type nu; ints for integral f."""
    out: dict = {}
    for lam, c in f.terms.items():
        _add_scaled(out, _as_int(c), _class_row(f.basis, lam).items())
    return {nu: _as_int(v) for nu, v in out.items() if v}


def _class_sums(f: SymExpr) -> dict:
    """Class sums N(nu) = chi_f(nu) |C_nu| = |nu|! [p_nu]f."""
    return {nu: c * _class_size(nu) for nu, c in _class_values(f).items()}


def _p_weights(f: SymExpr):
    """(L, [(mu, L [p_mu]f), ...]) with L = (deg f)!, ints for integral
    f: the class values times L / z_mu."""
    big = factorial(f.degree())
    return big, [(mu, c * (big // z_value(mu)))
                 for mu, c in _class_values(f).items()]


def _eval_power_sums(weights, value):
    """sum_mu w_mu prod_{k in mu} value(k) over the weights of
    ``_p_weights``, with value(k) computed once per k; ints for int
    weights and values."""
    values: dict = {}
    total = 0
    for mu, w in weights:
        for k in mu:
            v = values.get(k)
            if v is None:
                v = values[k] = value(k)
            w = w * v
            if not w:
                break
        else:
            total = total + w
    return total


@lru_cache(maxsize=None)
def _p_in_basis(target: str, nu: tuple):
    """p_nu = sum_lam a_lam b_lam in ``target``, as int pairs (lam, a_lam):
    MN characters for s and [h_lam]p_nu for h and for e with
    omega(p_nu) = p_nu (the items of ``_mn_column(nu)`` and
    ``_p_in_h(nu)``, not copies), a sign-flipped tuple of the latter for
    the other e columns, and for m the transpose of the h class rows,
    [m_lam]p_nu = <p_nu, h_lam>."""
    if target == "s":
        return _mn_column(nu).items()
    if target == "h" or target == "e" and _omega_sign(nu) == 1:
        return _p_in_h(nu).items()
    if target == "m":
        col = ((lam, _class_row("h", lam).get(nu, 0))
               for lam in partitions_of(sum(nu)))
    elif target == "p":
        col = ((nu, 1),)
    else:
        col = ((lam, -v) for lam, v in _p_in_h(nu).items())
    return tuple((lam, v) for lam, v in col if v)


def _from_class_sums(sums: dict, target: str, scale: int = 1) -> SymExpr:
    """sum_nu sums(nu) p_nu / (scale |nu|!), in ``target``: the one readout
    of every change of basis.

    An int sum over the integer columns of ``_p_in_basis`` for int class
    sums, divided once per output coefficient: for s,
    [s_lam]f = sum_nu N(nu) chi^lam(nu) / n!.
    """
    out: dict = {}
    for nu, c in sums.items():
        if c:
            _add_scaled(out, _as_int(c), _p_in_basis(target, nu))
    return SymExpr(target, {lam: _over(v, scale * factorial(sum(lam)))
                            for lam, v in out.items() if v})


def _from_class_values(chi: dict, target: str, scale: int = 1) -> SymExpr:
    """The symmetric function with character values chi / scale."""
    return _from_class_sums({nu: c * _class_size(nu) for nu, c in chi.items()},
                            target, scale)


# -- products and pairings ----------------------------------------------


def multiply(f: SymExpr, g: SymExpr, cap=None) -> SymExpr:
    """Outer product, returned in the basis of f, without the terms above
    degree cap: the binomial product of the class sums."""
    sums = (_class_sums(f).items(), _class_sums(g).items())
    return _from_class_sums(_p_mult_basis(sums, cap, binomial=True), f.basis)


def _pair(chi: dict, sums: dict, scale: int = 1) -> Coeff:
    """sum_n sum_{nu |- n} chi(nu) sums(nu) / (scale n!): the Hall pairing
    of class values with class sums, with one division per degree."""
    by_deg: dict = {}
    for nu, c in chi.items():
        s = sums.get(nu)
        if s:
            n = sum(nu)
            by_deg[n] = by_deg.get(n, 0) + c * s
    return sum((_over(acc, scale * factorial(n)) for n, acc in by_deg.items()),
               Fraction(0))


def hall_scalar(f: SymExpr, g: SymExpr) -> Coeff:
    """Hall scalar product: chi_f paired with the class sums of g."""
    return _pair(_class_values(f), _class_sums(g))


def internal(f: SymExpr, g: SymExpr) -> SymExpr:
    """Kronecker product: the pointwise product of characters."""
    a, b = _class_values(f), _class_values(g)
    return _from_class_values({nu: c * b[nu] for nu, c in a.items()
                               if nu in b}, f.basis)


def foulkes_derivative(f: SymExpr, g: SymExpr) -> SymExpr:
    """D_f g, the adjoint of multiplication by f, on class values: the int
    weights L [p_a]f of ``_p_weights`` times chi_g(a u beta), over L."""
    big, weights = _p_weights(f)
    chi = _class_values(g)
    out: dict = {}
    for alpha, w in weights:
        for nu, c in chi.items():
            rest = list(nu)
            for k in alpha:
                if k not in rest:
                    break
                rest.remove(k)
            else:
                beta = tuple(rest)
                out[beta] = out.get(beta, 0) + w * c
    return _from_class_values(out, g.basis, big)


def omega(f: SymExpr) -> SymExpr:
    """The involution exchanging h and e: the sign (-1)^(|nu| - len(nu))
    on the class sums."""
    return _from_class_sums({nu: _omega_sign(nu) * c
                             for nu, c in _class_sums(f).items()}, f.basis)


# -- characters and Littlewood-Richardson --------------------------------


def mn_character(lam, mu) -> int:
    """chi^lam_mu = <s_lam, p_mu>."""
    lam, mu = partition(lam), partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"|lam| != |mu|: {lam}, {mu}")
    return char_value(lam, mu)


def lr_coefficient(mu, nu, lam) -> int:
    """c^lam_{mu nu} = <s_mu s_nu, s_lam>."""
    mu, nu, lam = partition(mu), partition(nu), partition(lam)
    if sum(mu) + sum(nu) != sum(lam):
        return 0
    c = multiply(schur(mu), schur(nu)).coefficient(lam)
    if c.denominator != 1:
        raise ArithmeticError(f"non-integer LR coefficient {lam}: {c}")
    return int(c)


def skew_schur(lam, mu) -> SymExpr:
    """s_{lam/mu} = D_{s_mu} s_lam = sum_nu c^lam_{mu nu} s_nu."""
    return foulkes_derivative(schur(partition(mu)), schur(partition(lam)))


__all__ = [
    "BASES", "SymExpr", "schur", "homog", "elem", "power", "mono",
    "convert", "multiply", "hall_scalar", "internal", "foulkes_derivative",
    "omega", "mn_character", "lr_coefficient", "skew_schur",
    "char_value", "character_table", "conjugate", "multiplicities",
]
