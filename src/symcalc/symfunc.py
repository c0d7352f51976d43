"""The ring of symmetric functions with exact coefficients.

``SymExpr`` is a sparse, basis-tagged expansion: a map from partitions to
coefficients in one of the bases m/e/h/p/s.  Inhomogeneous expressions are
first-class.

A degree-n component is also a class function of S_n, with values
chi_f(nu) = <f, p_nu> = z_nu [p_nu]f on the cycle types nu and class sums
N(nu) = chi_f(nu) |C_nu| = |nu|! [p_nu]f, |C_nu| = n!/z_nu, ints for
integral f: lists over ``partitions_of(n)``, {n: list}.  f is read in by
the class rows <b_lam, p_nu> and out by the columns [b_lam]p_nu of its
nonzero class sums; the internal product, inner plethysm and the Hall
pairing are zips.  The columns in s, m and h are one kernel, ``_column``
(p_nu = p_r p_{nu[1:]}); the rows of s and m are slices of the s and h
columns, those of h a binomial product (e: h with the omega sign).

Products stay keyed by partitions: ``_class_product``, the one outer
product of class sums, concatenates them (its docstring states the rule),
as do the skew, chi_{D_f g}(beta) = sum_a [p_a]f chi_g(a u beta), and the
plethysm tails.  They cross into the lists by ``_vectors`` and back by
``_keyed``.  Transition data is memoized in memory only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import comb, factorial, prod
from operator import add, mul

from .coeffs import NUMBERS, Coeff, ParamPoly, coeff_to_json
from .partitions import (canonical_key, class_position, multiplicities,
                         partition, partitions_of, z_value)

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
    def _make(cls, basis: str, terms: dict) -> "SymExpr":
        """A SymExpr of clean terms: nonzero Fraction or ParamPoly values."""
        f = object.__new__(cls)
        f.basis, f.terms = basis, terms
        return f

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

    def truncate(self, cap: int) -> "SymExpr":
        return SymExpr(self.basis,
                       {lam: c for lam, c in self.terms.items()
                        if sum(lam) <= cap})

    def coefficient(self, lam) -> Coeff:
        return self.terms.get(tuple(lam), Fraction(0))

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
        if not isinstance(other, NUMBERS):
            return NotImplemented
        return SymExpr(self.basis,
                       {lam: c * other for lam, c in self.terms.items()})

    __rmul__ = __mul__

    def in_basis(self, target: str) -> "SymExpr":
        if target == self.basis:
            return self
        return _from_class_sums(_class_sums(self), target)

    def __eq__(self, other) -> bool:
        if isinstance(other, NUMBERS):
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


def _coerce(x, basis: str):
    if isinstance(x, SymExpr):
        return x
    if isinstance(x, NUMBERS):
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


# -- the class layout and transition data -------------------------------


def _vectors(pairs) -> dict:
    """{n: list} of (partition, value) pairs, repeats summed."""
    out: dict = {}
    for nu, v in pairs:
        n, i = class_position(nu)
        vec = out.get(n) or out.setdefault(n, [0] * len(partitions_of(n)))
        vec[i] = vec[i] + v if vec[i] else v
    return out


def _keyed(vecs: dict) -> list:
    """The nonzero (nu, value) pairs of class vectors, degree by degree."""
    return [(nu, v) for n, vec in vecs.items()
            for nu, v in zip(partitions_of(n), vec) if v]


def _as_int(c):
    """An integral Fraction as an int, for int sums; else unchanged."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def _over(c, d: int) -> Coeff:
    """c / d for an int, Fraction or ParamPoly c: ends an integer sum."""
    return c * Fraction(1, d) if isinstance(c, ParamPoly) else Fraction(c, d)


def _class_product(a, b, cap=None) -> dict:
    """The outer product of two iterables of (partition, class sum N(nu) =
    |nu|! [p_nu]F) pairs: N_fg(lam u mu) = C(|lam|+|mu|, |lam|) N_f(lam)
    N_g(mu), the weight taken once per size |mu|, keys lam u mu sorted;
    terms above degree cap are dropped as they arise, zero sums at the end.
    """
    by_size: dict = {}
    for mu, d in b:
        by_size.setdefault(sum(mu), []).append((mu, d))
    out: dict = {}
    for lam, c in a:
        m = sum(lam)
        for n, group in by_size.items():
            if cap is None or m + n <= cap:
                cw = c * comb(m + n, m)
                for mu, d in group:
                    key = tuple(sorted(lam + mu, reverse=True))
                    prev, cd = out.get(key), cw * d
                    out[key] = cd if prev is None else prev + cd
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _beads(lam: tuple) -> int:
    """The abacus mask of lam: a bead at lam_i + len(lam) - 1 - i."""
    return sum(1 << (x + len(lam) - 1 - i) for i, x in enumerate(lam))


@lru_cache(maxsize=None)
def _bead_index(n: int) -> dict:
    """{abacus mask of lam: position of lam in partitions_of(n)}."""
    return {_beads(lam): i for i, lam in enumerate(partitions_of(n))}


@lru_cache(maxsize=None)
def _times_p(basis: str, n: int, r: int) -> tuple:
    """p_r b_kappa = sum w b_lam for each kappa in partitions_of(n - r), as
    a flat int tuple (i0, w0, i1, w1, ...), lam the i-th partition of n.
    s, MN on the abacus: with r beads added below the mask of kappa, each
    border r-strip moves a bead b to a free b + r, w the sign of the beads
    between; the min(b, r) low beads left drop out.  m: a part b of kappa,
    or a new part 0, grows by r, w = m_{b+r}(lam).  h: lam = kappa u mu,
    w = [h_mu]p_r = (-1)^(l-1) r (l-1)! / prod_i m_i(mu)!, l = len(mu)."""
    rows, index = [], _bead_index(n)
    newton = [(mu, (-1) ** (len(mu) - 1) * r * factorial(len(mu) - 1)
               // prod(map(factorial, multiplicities(mu).values())))
              for mu in partitions_of(r)] if basis == "h" else []
    for kappa in partitions_of(n - r):
        row, m = [], (_beads(kappa) << r) | ((1 << r) - 1)
        movable = m & ~(m >> r) if basis == "s" else 0
        while movable:
            low = movable & -movable
            movable ^= low
            new = (m ^ low ^ (low << r)) >> min(low.bit_length() - 1, r)
            odd = (m & ((low << r) - (low << 1))).bit_count() & 1
            row += index[new], -1 if odd else 1
        grown = [(kappa[:i] + (b + r,) + kappa[i + 1:],
                  kappa.count(b + r) + 1) for i, b in enumerate(kappa + (0,))
                 if not i or kappa[i - 1] != b] if basis == "m" else []
        for lam, w in grown + [(kappa + mu, w) for mu, w in newton]:
            row += index[_beads(tuple(sorted(lam, reverse=True)))], w
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _column(basis: str, nu: tuple) -> list:
    """[[b_lam]p_nu for lam in partitions_of(|nu|)], ints, for b = s (the
    MN characters chi^lam(nu)), h or m: the column of nu[1:] through the
    ``_times_p`` table of r = nu[0].  Read only."""
    if not nu:
        return [1]
    n, r = sum(nu), nu[0]
    col = [0] * len(partitions_of(n))
    for v, row in zip(_column(basis, nu[1:]), _times_p(basis, n, r)):
        if v:
            it = iter(row)
            for i, w in zip(it, it):
                col[i] += v * w
    return col


# The MN characters (their one store), [h_lam]p_nu and [m_lam]p_nu.
_mn_column, _p_in_h, _m_column = (partial(_column, b) for b in "shm")


def char_value(lam: tuple, mu: tuple) -> int:
    """chi^lam(mu), read from the MN column of mu; 0 if lam = () != mu."""
    if lam and sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: {lam} vs {mu}")
    return _mn_column(mu)[class_position(lam)[1]] if lam or not mu else 0


def character_table(n: int) -> dict:
    """Full character table of degree n: (lam, mu) -> integer, in
    partitions_of(n) order, read from the MN columns."""
    parts = partitions_of(n)
    cols = [(mu, _mn_column(mu)) for mu in parts]
    return {(lam, mu): col[i]
            for i, lam in enumerate(parts) for mu, col in cols}


@lru_cache(maxsize=None)
def _class_sizes(n: int) -> list:
    """|C_nu| = n! / z_nu over partitions_of(n)."""
    return [factorial(n) // z_value(nu) for nu in partitions_of(n)]


@lru_cache(maxsize=None)
def _omega_signs(n: int) -> list:
    """omega(p_nu) = (-1)^(n - len(nu)) p_nu over partitions_of(n)."""
    return [-1 if (n - len(nu)) % 2 else 1 for nu in partitions_of(n)]


# -- basis conversion ---------------------------------------------------


def convert(f: SymExpr, target: str) -> SymExpr:
    return f.in_basis(target)


@lru_cache(maxsize=None)
def _class_row(basis: str, lam: tuple) -> list:
    """[<b_lam, p_nu> for nu in partitions_of(|lam|)], ints (see the module
    docstring); for h, N(nu) / |C_nu| with N the product of the class sums
    of the parts of lam, not [m_lam]p_nu read off the m columns, as one row
    would need them all.  Read only: these are the class values of b_lam."""
    n, i = class_position(lam)
    if basis in "sm":
        column = _mn_column if basis == "s" else _p_in_h
        return [column(nu)[i] for nu in partitions_of(n)]
    if basis == "p":
        return [z_value(lam) if nu == lam else 0 for nu in partitions_of(n)]
    if basis == "e":
        return list(map(mul, _omega_signs(n), _class_row("h", lam)))
    if not lam:
        return [1]
    head = zip(partitions_of(lam[0]), _class_sizes(lam[0]))
    tail = _keyed(_class_sums(homog(lam[1:])))
    sums = _class_product(head, tail)
    return [sums.get(nu, 0) // c
            for nu, c in zip(partitions_of(n), _class_sizes(n))]


def _class_values(f: SymExpr) -> dict:
    """{n: [chi_f(nu) for nu in partitions_of(n)]}, ints for integral f;
    read only, as b_lam itself gets its memoized class row."""
    out, ints = {}, True   # with int coefficients, int class values
    for lam, c in f.terms.items():
        n, c, row = sum(lam), _as_int(c), _class_row(f.basis, lam)
        ints = ints and type(c) is int
        out[n] = row if n not in out and type(c) is int and c == 1 else [
            (a + c * x if a else c * x) if x else a
            for a, x in zip(out.get(n) or [0] * len(row), row)]
    return out if ints else {n: list(map(_as_int, v)) for n, v in out.items()}


def _class_sums(f: SymExpr) -> dict:
    """Class sums N(nu) = chi_f(nu) |C_nu| = |nu|! [p_nu]f."""
    return {n: list(map(mul, v, _class_sizes(n)))
            for n, v in _class_values(f).items()}


def _p_weights(f: SymExpr):
    """(L, [(mu, L [p_mu]f), ...]) with L = (deg f)!, ints for integral
    f: the class sums times L / |mu|!."""
    big = factorial(f.degree())
    return big, [(mu, s * (big // factorial(sum(mu))))
                 for mu, s in _keyed(_class_sums(f))]


def _eval_power_sums(weights, value):
    """sum_mu w_mu prod_{k in mu} value(k) over ``_p_weights``, value(k)
    computed once per k; ints for int weights and values."""
    values: dict = {}
    total = 0
    for mu, w in weights:
        for k in mu:
            if k not in values:
                values[k] = value(k)
            w = w * values[k]
            if not w:
                break
        else:
            total = total + w
    return total


def _from_class_sums(sums: dict, target: str, scale: int = 1) -> SymExpr:
    """sum_nu sums(nu) p_nu / (scale |nu|!) in ``target``, the one readout:
    the columns [b_lam]p_nu of the nonzero sums, transposed, give one dot
    product per lam, divided once (e: omega of the sums on h columns);
    sums not all ints multiply only nonzero entries."""
    column = {"s": _mn_column, "m": _m_column}.get(target, _p_in_h)
    out: dict = {}
    for n, vec in sums.items():
        d = scale * factorial(n)
        if target == "p":
            out.update((nu, _over(c, d))
                       for nu, c in zip(partitions_of(n), vec) if c)
            continue
        if target == "e":
            vec = list(map(mul, _omega_signs(n), vec))
        ints = all(type(c) is int for c in vec)
        vals = [c if ints else _as_int(c) for c in vec if c]
        cols = [column(nu) for nu, c in zip(partitions_of(n), vec) if c]
        for lam, row in zip(partitions_of(n), zip(*cols)):
            c = (sum(map(mul, vals, row)) if ints else
                 reduce(add, [x * y for x, y in zip(vals, row) if y] or [0]))
            if c:
                out[lam] = _over(c, d)
    return SymExpr._make(target, out)


def _from_class_values(chi: dict, target: str, scale: int = 1) -> SymExpr:
    """The symmetric function with character values chi / scale."""
    return _from_class_sums({n: list(map(mul, v, _class_sizes(n)))
                             for n, v in chi.items()}, target, scale)


# -- products and pairings ----------------------------------------------


def multiply(f: SymExpr, g: SymExpr, cap=None) -> SymExpr:
    """Outer product, returned in the basis of f, without the terms above
    degree cap: ``_class_product`` of the class sums."""
    sums = (_keyed(_class_sums(f)), _keyed(_class_sums(g)))
    return _from_class_sums(_vectors(_class_product(*sums, cap).items()),
                            f.basis)


def _pair(chi: dict, sums: dict) -> Coeff:
    """sum_n sum_{nu |- n} chi(nu) sums(nu) / n!: the Hall pairing,
    a sum of the nonzero products with one division per degree."""
    total = Fraction(0)
    for n, vec in sums.items():
        terms = [c * s for c, s in zip(chi.get(n, ()), vec) if c and s]
        if terms:
            total = total + _over(sum(terms), factorial(n))
    return total


def hall_scalar(f: SymExpr, g: SymExpr) -> Coeff:
    """Hall scalar product: chi_f paired with the class sums of g."""
    return _pair(_class_values(f), _class_sums(g))


def internal(f: SymExpr, g: SymExpr) -> SymExpr:
    """Kronecker product: the pointwise product of characters."""
    a, b = _class_values(f), _class_values(g)
    return _from_class_values({n: list(map(mul, v, b[n]))
                               for n, v in a.items() if n in b}, f.basis)


def foulkes_derivative(f: SymExpr, g: SymExpr) -> SymExpr:
    """D_f g, the adjoint of multiplication by f, on class values: the int
    weights L [p_a]f of ``_p_weights`` times chi_g(a u beta), over L."""
    big, weights = _p_weights(f)
    chi = _class_values(g)
    return _from_class_values(_vectors(
        (beta, w * chi[n][class_position(tuple(sorted(alpha + beta,
                                                      reverse=True)))[1]])
        for alpha, w in weights for n in chi if n >= sum(alpha)
        for beta in partitions_of(n - sum(alpha))), g.basis, big)


def omega(f: SymExpr) -> SymExpr:
    """The involution exchanging h and e: the sign (-1)^(|nu| - len(nu))
    on the class sums."""
    return _from_class_sums({n: list(map(mul, _omega_signs(n), v))
                             for n, v in _class_sums(f).items()}, f.basis)


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
