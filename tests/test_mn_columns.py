"""The column-at-a-time Murnaghan-Nakayama kernel against the earlier
(lam, rest)-memoized border-strip recursion, which is kept here as the
reference; orthogonality of the degree-18 table; the edge cases of
``char_value``; the MN columns as int lists over ``partitions_of(n)``
(``_bead_index`` places the abacus masks of ``_beads``); and that
character tables are neither read from nor written to a cache directory.
"""

import hashlib
import json
from functools import lru_cache
from math import factorial

import pytest

from symcalc.cache import FORMAT_VERSION, set_cache_dir
from symcalc.partitions import partitions_of, z_value
from symcalc.symfunc import (_bead_index, _beads, _mn_column, char_value,
                             character_table)


@lru_cache(maxsize=None)
def _ref_char_value(lam: tuple, mu: tuple) -> int:
    """MN by removing a border strip of size mu[0] from lam, via beta
    numbers, memoized on (lam, rest of mu)."""
    if not lam:
        return 1 if not mu else 0
    r, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    total = 0
    for b in beta:
        if b - r < 0 or (b - r) in bset:
            continue
        height = sum(1 for c in beta if b - r < c < b)
        newbeta = sorted((bset - {b}) | {b - r}, reverse=True)
        newlam = tuple(x - (ell - 1 - i) for i, x in enumerate(newbeta))
        newlam = tuple(x for x in newlam if x > 0)
        total += (-1) ** height * _ref_char_value(newlam, rest)
    return total


@pytest.mark.parametrize("n", range(15))
def test_char_value_matches_border_strip_recursion(n):
    parts = partitions_of(n)
    bad = [(lam, mu) for lam in parts for mu in parts
           if char_value(lam, mu) != _ref_char_value(lam, mu)]
    assert not bad, bad[:5]


def test_character_table_in_partition_order():
    for n in range(9):
        parts = partitions_of(n)
        table = character_table(n)
        assert list(table) == [(lam, mu) for lam in parts for mu in parts]
        assert all(v == _ref_char_value(*k) for k, v in table.items())


def test_character_table_18_orthogonality():
    # sum_lam chi^lam(mu)^2 = z_mu, and every column is orthogonal to
    # the column of the identity class
    n = 18
    parts = partitions_of(n)
    table = character_table(n)
    one = (1,) * n
    for mu in parts:
        col = [table[lam, mu] for lam in parts]
        assert sum(v * v for v in col) == z_value(mu), mu
        dot = sum(table[lam, one] * v for lam, v in zip(parts, col))
        assert dot == (factorial(n) if mu == one else 0), mu


def test_char_value_edge_cases():
    assert char_value((), ()) == 1
    assert char_value((), (1,)) == 0
    with pytest.raises(ValueError):
        char_value((2,), (1,))
    with pytest.raises(ValueError):
        char_value((2, 1), (2, 2))


def test_old_chartable_file_is_not_read(tmp_path):
    # a well-formed (right version and checksum) table under the file
    # name of an earlier kernel, with one wrong value: character tables
    # are never read from or written to the cache directory
    n = 4
    parts = partitions_of(n)
    payload = {f"{','.join(map(str, lam))}|{','.join(map(str, mu))}":
               _ref_char_value(lam, mu) for lam in parts for mu in parts}
    payload["3,1|2,2"] += 7
    text = json.dumps(payload, sort_keys=True)
    doc = {"version": FORMAT_VERSION, "payload": payload,
           "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    (tmp_path / f"chartable-{n}.json").write_text(
        json.dumps(doc, sort_keys=True))
    before = sorted(f.name for f in tmp_path.iterdir())
    set_cache_dir(str(tmp_path))
    try:
        table = character_table(n)
        again = character_table(n)
    finally:
        set_cache_dir(None)
    assert table == again == {(lam, mu): _ref_char_value(lam, mu)
                              for lam in parts for mu in parts}
    assert sorted(f.name for f in tmp_path.iterdir()) == before


def test_character_table_read_back_keeps_partition_order(tmp_path):
    # with a cache directory set, every call reads the MN columns in
    # partitions_of(n) x partitions_of(n) order and writes nothing
    n = 5
    parts = partitions_of(n)
    set_cache_dir(str(tmp_path))
    try:
        computed = character_table(n)
        read_back = character_table(n)
    finally:
        set_cache_dir(None)
    assert list(tmp_path.iterdir()) == []
    assert list(computed) == list(read_back) == [
        (lam, mu) for lam in parts for mu in parts]
    assert computed == read_back


def test_bead_index_inverts_beads():
    for n in range(15):
        index = _bead_index(n)
        assert sorted(index.values()) == list(range(len(partitions_of(n))))
        for mask, i in index.items():
            beads = [b for b in range(mask.bit_length()) if mask >> b & 1]
            shape = tuple(b - k for k, b in enumerate(beads))[::-1]
            assert shape == partitions_of(n)[i] and _beads(shape) == mask


def test_mn_columns_are_lists_over_partitions():
    for n in range(17):
        parts = partitions_of(n)
        for mu in parts:
            col = _mn_column(mu)
            assert type(col) is list and len(col) == len(parts), mu
            assert all(type(v) is int for v in col), mu
            if n <= 8:
                assert col == [_ref_char_value(lam, mu) for lam in parts]
