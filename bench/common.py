"""Helpers shared by the benchmark's parent and child processes.

They are independent of symcalc: inputs are drawn, and outputs checked,
with the benchmark's own partition arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial


@lru_cache(maxsize=None)
def partitions(n: int) -> list:
    """Partitions of n as tuples, in decreasing lexicographic order."""
    out = []

    def rec(left, largest, prefix):
        if left == 0:
            out.append(prefix)
            return
        for part in range(min(left, largest), 0, -1):
            rec(left - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def z_value(mu: tuple) -> int:
    """Centralizer order of a permutation of cycle type mu."""
    z = 1
    for part in set(mu):
        m = mu.count(part)
        z *= part ** m * factorial(m)
    return z
