"""The one column kernel of change of basis.

The columns [b_lam]p_nu in s, m and h all come from p_nu = p_r p_{nu[1:]},
r = nu[0]: the column of nu[1:] through the memoized table ``_times_p``
of p_r b_kappa.  Each table row is checked against a reference that does
not use the library: the border-strip step of ``test_mn_columns`` for s,
a product of monomials on exponent vectors for m, and Newton's identity
(``test_class_vectors``) for h.  The m columns are checked against a count
of the maps from the cycles of nu to the rows of lam, and against the h
class rows, which stay a binomial product: the two routes are transposes.
No public call may change a memoized column or table row, and an h class
row must not reach the column kernel, which would build every m column of
its degree for one row.
"""

from itertools import permutations

import pytest

from symcalc import symfunc
from symcalc.innerpleth import adams, inner_plethysm
from symcalc.partitions import class_position, partitions_of
from symcalc.stable import angle, character_polynomial, stable_kron, tilde_s
from symcalc.symfunc import (_class_row, _column, _m_column, _mn_column,
                             _p_in_h, _times_p, convert, elem, hall_scalar,
                             homog, internal, mono, multiply, omega, power,
                             schur)
from test_class_vectors import _ref_pk_in_h

MAKERS = {"s": schur, "h": homog, "e": elem, "p": power, "m": mono}


def _decode(basis, n, r):
    """The table rows as {kappa: {lam: w}}, with the flat layout checked:
    int tuples of (position, weight), each position once, no zero weight."""
    parts, out = partitions_of(n), {}
    table = _times_p(basis, n, r)
    assert type(table) is tuple and len(table) == len(partitions_of(n - r))
    for kappa, row in zip(partitions_of(n - r), table):
        assert type(row) is tuple and all(type(x) is int for x in row)
        positions, weights = row[::2], row[1::2]
        assert len(set(positions)) == len(positions) and all(weights)
        out[kappa] = {parts[i]: w for i, w in zip(positions, weights)}
    return out


# -- references --------------------------------------------------------------


def _ref_strips(lam, r):
    """(kappa, sign) for each border r-strip lam/kappa: a beta number of lam
    moves down by r to a free place, the sign that of the beta numbers
    passed, as in the border-strip recursion of ``test_mn_columns``."""
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    for b in beta:
        if b - r < 0 or (b - r) in beta:
            continue
        height = sum(1 for c in beta if b - r < c < b)
        newbeta = sorted((set(beta) - {b}) | {b - r}, reverse=True)
        kappa = tuple(x - (ell - 1 - i) for i, x in enumerate(newbeta))
        yield tuple(x for x in kappa if x > 0), (-1) ** height


def _ref_times_p_s(n, r):
    out = {kappa: {} for kappa in partitions_of(n - r)}
    for lam in partitions_of(n):
        for kappa, sign in _ref_strips(lam, r):
            out[kappa][lam] = sign
    return out


def _ref_times_p_m(kappa, r):
    """p_r m_kappa in len(kappa) + 1 variables, as many as any lam in it
    has parts: every monomial of m_kappa times every x_j^r, read off at the
    dominant exponent vectors."""
    k = len(kappa) + 1
    product = {}
    for exps in set(permutations(kappa + (0,))):
        for j in range(k):
            key = exps[:j] + (exps[j] + r,) + exps[j + 1:]
            product[key] = product.get(key, 0) + 1
    return {tuple(x for x in e if x): c for e, c in product.items()
            if list(e) == sorted(e, reverse=True)}


def _ref_times_p_h(kappa, r):
    return {tuple(sorted(kappa + mu, reverse=True)): w
            for mu, w in _ref_pk_in_h(r).items()}


def _ref_maps(lam, nu):
    """Every map from the cycles of nu to the rows of lam with row sums lam,
    one at a time: [m_lam]p_nu."""
    def maps(i, room):
        if i == len(nu):
            yield ()
            return
        for j in range(len(room)):
            if room[j] >= nu[i]:
                rest = room[:j] + (room[j] - nu[i],) + room[j + 1:]
                yield from ((j,) + f for f in maps(i + 1, rest))

    count = 0
    for f in maps(0, lam):
        assert [sum(c for c, j in zip(nu, f) if j == row)
                for row in range(len(lam))] == list(lam)
        count += 1
    return count


# -- the tables --------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 10))
def test_times_p_rows_match_the_references(n):
    for r in range(1, n + 1):
        assert _decode("s", n, r) == _ref_times_p_s(n, r)
        got_m, got_h = _decode("m", n, r), _decode("h", n, r)
        for kappa in partitions_of(n - r):
            assert got_m[kappa] == _ref_times_p_m(kappa, r), (kappa, r)
            assert got_h[kappa] == _ref_times_p_h(kappa, r), (kappa, r)


def test_times_p_of_the_empty_partition_is_p_r():
    # p_r = sum of the hooks with sign, = m_r, = its Newton expansion
    for r in range(1, 10):
        assert _decode("s", r, r) == {(): {
            lam: (-1) ** (len(lam) - 1) for lam in partitions_of(r)
            if lam[1:] == (1,) * (len(lam) - 1)}}
        assert _decode("m", r, r) == {(): {(r,): 1}}
        assert _decode("h", r, r) == {(): _ref_pk_in_h(r)}


# -- the columns -------------------------------------------------------------


def test_named_columns_are_the_kernel():
    for n in range(8):
        for nu in partitions_of(n):
            assert _mn_column(nu) is _column("s", nu)
            assert _p_in_h(nu) is _column("h", nu)
            assert _m_column(nu) is _column("m", nu)


@pytest.mark.parametrize("n", range(9))
def test_m_columns_count_maps_of_cycles_to_rows(n):
    for nu in partitions_of(n):
        assert _m_column(nu) == [_ref_maps(lam, nu)
                                 for lam in partitions_of(n)], nu


@pytest.mark.parametrize("n", range(11))
def test_h_rows_and_m_columns_are_transposes(n):
    # <h_lam, p_nu> = [m_lam]p_nu: the binomial row route against the
    # column route
    parts = partitions_of(n)
    for i, lam in enumerate(parts):
        row = _class_row("h", lam)
        assert row == [_m_column(nu)[i] for nu in parts], lam


def test_an_h_row_does_not_reach_the_column_kernel(monkeypatch):
    calls = []
    kernel = symfunc._column

    def spy(basis, nu):
        calls.append(basis)
        return kernel(basis, nu)

    monkeypatch.setattr(symfunc, "_column", spy)
    before = kernel.cache_info()
    row = _class_row.__wrapped__("h", (11, 1))   # computed, not memo-read
    assert not calls and kernel.cache_info() == before
    # the row itself is right: the m columns at (11, 1), read afterwards
    i = class_position((11, 1))[1]
    assert row == [_m_column(nu)[i] for nu in partitions_of(12)]


def test_no_public_call_mutates_a_column_or_a_table_row():
    lams = [lam for n in range(1, 7) for lam in partitions_of(n)]
    cols = [(b, nu) for b in "shm" for nu in lams]
    tables = [(b, n, r) for b in "shm" for n in range(1, 7)
              for r in range(1, n + 1)]
    held = [_column(*key) for key in cols]
    held_tables = [_times_p(*key) for key in tables]
    before = [list(v) for v in held]
    for lam in lams:
        f = schur(lam)
        for b in MAKERS:
            g = MAKERS[b](lam)
            for target in MAKERS:
                convert(g, target)
            internal(g, f)
            omega(g)
            adams(g, 2)
        multiply(f, homog([1]))
        hall_scalar(f, mono(lam))
        inner_plethysm(power([2]) + 1, f)
        character_polynomial(lam[:2])
        stable_kron(angle(lam[:2]), angle([1]))
    tilde_s((2, 1))
    assert all(_column(*key) is v for key, v in zip(cols, held))
    assert [list(v) for v in held] == before
    assert all(_times_p(*key) is t for key, t in zip(tables, held_tables))
