"""Reference helpers that only the tests use.

Each is a plain function over the library's public objects: straightening
of s_alpha, the Moebius function by trial division (the library's
``alphabets._mobius`` is Moebius inversion), the vector-partition count
behind the c matrix, the inverse
of ``to_angle_basis``, the horizontal strips below a shape, the conjugate
of a shape, a character polynomial at one cycle type, two small maps on
a ``SymExpr``, the plain product of expansions in a multiplicative
basis (the library multiplies class sums, ``symfunc._class_product``), a
``ParamPoly`` without its unused parameters (``canon``) and
the JSON readers, inverse to the ``to_json`` writers of the library (which
only ever writes JSON).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from symcalc.alphabets import shift_alphabet
from symcalc.coeffs import ParamPoly, _param_key
from symcalc.partitions import multiplicities, partition
from symcalc.stable import CharPolynomial, StableChar
from symcalc.symfunc import SymExpr


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
    # the sign is the parity of the permutation sorting beta decreasingly
    sign = (-1) ** sum(b < c for i, b in enumerate(beta) for c in beta[i + 1:])
    lam = [b - (k - 1 - i) for i, b in enumerate(sorted(beta, reverse=True))]
    return sign, partition(x for x in lam if x)


def mobius(n: int) -> int:
    """The Moebius function by trial division: 0 when a square divides n,
    else (-1) to the number of prime factors."""
    if n == 1:
        return 1
    m, primes = n, []
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            primes.append(d)
        else:
            d += 1
    if m > 1:
        primes.append(m)
    return (-1) ** len(primes)


def vector_partition_count(lam, mu) -> int:
    """Multisets of nonzero columns with row sums lam and column
    multiplicity multiset mu (matrices up to column permutation)."""
    lam, mu = partition(lam), partition(mu)
    if not lam:
        return 1 if not mu else 0
    k = len(lam)

    vectors = [v for v in product(*(range(x + 1) for x in lam)) if any(v)]

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


def from_angle_basis(coeffs: dict) -> StableChar:
    """The stable character sum c_nu <nu>, the inverse of to_angle_basis."""
    return StableChar(shift_alphabet(SymExpr("s", coeffs), -1))


def horizontal_strip_subshapes(lam: tuple) -> list:
    """All alpha subseteq lam such that lam/alpha is a horizontal strip.

    These are the alpha interlacing lam: lam_{i+1} <= alpha_i <= lam_i.
    """
    rows = len(lam)
    out: list = []

    def rec(i: int, prefix: tuple):
        if i == rows:
            out.append(tuple(x for x in prefix if x > 0))
            return
        lo = lam[i + 1] if i + 1 < rows else 0
        hi = min(lam[i], prefix[-1]) if prefix else lam[i]
        for a in range(hi, lo - 1, -1):
            rec(i + 1, prefix + (a,))

    rec(0, ())
    return out


def conjugate(lam: tuple) -> tuple:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def plain_product(factors, cap=None) -> dict:
    """Product of expansions in a multiplicative basis (p, h or e).

    Each factor is an iterable of (partition, coeff) pairs; keys
    concatenate and sort.  With ``cap``, terms above that degree are
    dropped as they arise.
    """
    acc = {(): 1}
    for terms in factors:
        by_size: dict = {}
        for mu, d in terms:
            by_size.setdefault(sum(mu), []).append((mu, d))
        nxt: dict = {}
        for lam, c in acc.items():
            a = sum(lam)
            for b, group in by_size.items():
                if cap is not None and a + b > cap:
                    continue
                for mu, d in group:
                    key = tuple(sorted(lam + mu, reverse=True)) if lam else mu
                    prev, cd = nxt.get(key), c * d
                    nxt[key] = cd if prev is None else prev + cd
        acc = {k: v for k, v in nxt.items() if v}
    return acc


def eval_cycle_type(cp, mu) -> int:
    """The character polynomial cp at the cycle type mu."""
    return cp.evaluate(multiplicities(partition(mu)))


def homogeneous_component(f: SymExpr, d: int) -> SymExpr:
    """The terms of f of degree d."""
    return SymExpr(f.basis,
                   {lam: c for lam, c in f.terms.items() if sum(lam) == d})


def map_coeffs(f: SymExpr, fn) -> SymExpr:
    """fn applied to every coefficient of f."""
    return SymExpr(f.basis, {lam: fn(c) for lam, c in f.terms.items()})


def canon(p: ParamPoly) -> ParamPoly:
    """p without the parameters that never occur in it."""
    used = [i for i, _ in enumerate(p.params) if any(e[i] for e in p.terms)]
    params = tuple(p.params[i] for i in used)
    terms = {tuple(e[i] for i in used): c for e, c in p.terms.items()}
    return ParamPoly(params, terms, {q: p.caps[q] for q in params
                                     if q in p.caps})


def fraction_from_json(d: dict) -> Fraction:
    return Fraction(int(d["num"]), int(d["den"]))


def param_poly_from_json(data) -> ParamPoly:
    params = sorted({p for t in data for p in t["exps"]}, key=_param_key)
    terms = {}
    for t in data:
        e = tuple(t["exps"].get(p, 0) for p in params)
        terms[e] = fraction_from_json(t["coeff"])
    return ParamPoly(params, terms)


def coeff_from_json(d):
    if "poly" in d:
        return param_poly_from_json(d["poly"])
    return fraction_from_json(d)


def symexpr_from_json(data: dict) -> SymExpr:
    return SymExpr(data["basis"],
                   {tuple(t["part"]): coeff_from_json(t["coeff"])
                    for t in data["terms"]})


def stable_char_from_json(data) -> StableChar:
    return StableChar(symexpr_from_json(data["reduced"]))


def charpoly_from_json(data) -> CharPolynomial:
    return CharPolynomial({tuple(entry["nu"]): entry["coeff"]
                           for entry in data})
