"""Integer partitions, cycle types, and their enumeration.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the partition of 0.  Keeping them as tuples makes them
hashable, totally ordered and directly usable as dict keys, which is what
every sparse expansion in this package relies on.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, gcd


def partition(parts) -> tuple:
    """Validate and normalize an iterable into a partition tuple."""
    p = tuple(int(x) for x in parts)
    if any(x <= 0 for x in p):
        raise ValueError(f"partition parts must be positive: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {p}")
    return p


def sort_to_partition(parts) -> tuple:
    """Sort positive entries into a partition (drops zeros)."""
    p = tuple(sorted((int(x) for x in parts if x != 0), reverse=True))
    if p and p[-1] < 0:
        raise ValueError(f"negative entries: {parts}")
    return p


def multiplicities(mu: tuple) -> dict:
    """Map part -> multiplicity m_i."""
    m: dict = {}
    for part in mu:
        m[part] = m.get(part, 0) + 1
    return m


def z_value(mu: tuple) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    z = 1
    for part, m in multiplicities(mu).items():
        z *= part ** m * factorial(m)
    return z


@lru_cache(maxsize=None)
def power_cycle_type(mu: tuple, k: int) -> tuple:
    """Cycle type of tau^k when tau has cycle type mu.

    Each d-cycle splits into gcd(d,k) cycles of length d/gcd(d,k).
    """
    if k < 1:
        raise ValueError("k must be positive")
    parts = []
    for d in mu:
        g = gcd(d, k)
        parts.extend([d // g] * g)
    return sort_to_partition(parts)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple:
    """All partitions of n, in reverse lexicographic order.

    Reverse-lex means (n) first, (1,...,1) last; this is the canonical
    ordering used for all table output.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_gen(n, n))


@lru_cache(maxsize=None)
def class_position(mu: tuple) -> tuple:
    """(n, i), mu the i-th partition of n: class functions are lists."""
    return sum(mu), partitions_of(sum(mu)).index(mu)


@lru_cache(maxsize=None)
def power_map(n: int, k: int) -> tuple:
    """psi_k on that layout: position of nu -> that of nu^k."""
    return tuple(class_position(power_cycle_type(nu, k))[1]
                 for nu in partitions_of(n))


def _gen(n: int, maxpart: int, prefix: tuple = ()):
    if n == 0:
        yield prefix
        return
    for first in range(min(n, maxpart), 0, -1):
        yield from _gen(n - first, first, prefix + (first,))


def partitions_up_to(n: int) -> list:
    """Partitions of 0..n in canonical (degree, reverse-lex) order."""
    out = []
    for d in range(n + 1):
        out.extend(partitions_of(d))
    return out


def canonical_key(lam: tuple) -> tuple:
    """Sort key realizing the canonical (degree, reverse-lex) order."""
    return (sum(lam), tuple(-x for x in lam))


def horizontal_strip_supershapes(nu: tuple, k: int) -> list:
    """All lam supseteq nu such that lam/nu is a horizontal strip of size k.

    These are the lam interlacing nu from above: nu_i <= lam_i <= nu_{i-1}
    for i >= 1, with lam_0 >= nu_0 unbounded and one new row allowed.
    The rows below row i can take at most nu_i more boxes, so lam_i >=
    (boxes left to place); the work is proportional to the output, not k.
    """
    rows = len(nu) + 1
    out: list = []

    def rec(i: int, left: int, prefix: tuple):
        if i == rows:
            out.append(tuple(x for x in prefix if x > 0))
            return
        lo = nu[i] if i < len(nu) else 0
        hi = lo + left if i == 0 else min(nu[i - 1], lo + left)
        for a in range(hi, max(lo, left) - 1, -1):
            rec(i + 1, left - (a - lo), prefix + (a,))

    rec(0, k, ())
    return out
