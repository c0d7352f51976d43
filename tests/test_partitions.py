import math

import pytest
from hypothesis import given, strategies as st

from symcalc.partitions import (canonical_key, horizontal_strip_supershapes,
                                multiplicities, partition, partitions_of,
                                partitions_up_to, power_cycle_type,
                                sort_to_partition, z_value)
from oracles import conjugate, horizontal_strip_subshapes


def test_partition_validates():
    assert partition([3, 1]) == (3, 1)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([1, 0])


def test_counts():
    # number of partitions of n for n = 0..10
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, e in enumerate(expected):
        assert len(partitions_of(n)) == e
    assert len(partitions_up_to(5)) == sum(expected[:6])


def test_partitions_of_order():
    # reverse lexicographic: largest first part first
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_z_value():
    # sum over partitions of n of n!/z = p(n) classes cover S_n
    for n in range(1, 8):
        assert sum(math.factorial(n) // z_value(mu)
                   for mu in partitions_of(n)) == math.factorial(n)
    assert z_value((2, 1, 1)) == 4
    assert z_value((3,)) == 3


def test_conjugate_involution():
    for lam in partitions_up_to(8):
        assert conjugate(conjugate(lam)) == lam
    assert conjugate((3, 1)) == (2, 1, 1)


def test_power_cycle_type():
    # cycle type of g^k when g has cycle type mu
    assert power_cycle_type((6,), 2) == (3, 3)
    assert power_cycle_type((6,), 3) == (2, 2, 2)
    assert power_cycle_type((4, 2), 2) == (2, 2, 1, 1)
    assert power_cycle_type((5,), 5) == (1, 1, 1, 1, 1)


@given(st.lists(st.integers(1, 9), max_size=6))
def test_sort_to_partition(parts):
    lam = sort_to_partition(parts)
    assert lam == tuple(sorted(parts, reverse=True))
    assert sum(multiplicities(lam).values()) == len(parts)
    assert set(multiplicities(lam)) == set(parts)


def test_canonical_order():
    lams = sorted(partitions_up_to(4), key=canonical_key)
    assert lams[:6] == [(), (1,), (2,), (1, 1), (3,), (2, 1)]


def contains(lam: tuple, mu: tuple) -> bool:
    """Diagram containment mu subseteq lam."""
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (1, 1, 1))


def test_horizontal_strips():
    # subshapes mu of lam with lam/mu a horizontal strip: interlacing rows
    strips = horizontal_strip_subshapes((2, 1))
    assert set(strips) == {(2, 1), (1, 1), (2,), (1,)}


def test_horizontal_strip_supershapes_dual_to_subshapes():
    for n in range(6):
        for nu in partitions_of(n):
            for k in range(4):
                sup = horizontal_strip_supershapes(nu, k)
                assert len(set(sup)) == len(sup)
                want = [lam for lam in partitions_of(n + k)
                        if nu in horizontal_strip_subshapes(lam)]
                assert sorted(sup) == sorted(want), (nu, k)
