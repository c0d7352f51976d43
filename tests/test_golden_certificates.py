"""Certificates for the golden CLI corpus: answers recorded in
``data/golden/cli.json`` are checked against identities they must satisfy,
read from the file alone, so a wrong recording cannot pass as a snapshot.

- The ``inner-plethysm`` lines give the matrix C with [h_lam] = sum_mu
  C[lam][mu] <<h_mu>>, the ``perm-chars`` lines the matrix T with
  <<h_lam>> = sum_mu T[lam][mu] [h_mu]; they are inverse, C T = I.
- The entry C[lam][mu] counts the multisets of nonzero integer columns
  with row sums lam and column multiplicities mu (``vector_partition_count``
  of ``tests/oracles.py``), zeros included: with C T = I, this certifies
  the ``perm-chars`` table too.
- The other sections that print C agree with it: ``h-on-tilde-h`` is
  h_lam = sum_mu C[lam][mu] th_mu, row for row, and ``tilde-h-dual`` prints
  the columns th_mu* = sum_lam C[lam][mu] m_lam.  Likewise each column
  ts_mu* of ``tilde-s-dual`` is the column mu of ``schur-on-tilde-s``,
  s_lam = sum_mu A[lam][mu] ts_mu.
- The A matrix is T^-1 on s_lam, T^-1 f = f^[<<1>>], read on the family
  <mu> of stable irreducible characters: at n = 2|lam|, in the stable
  range of every <mu> with |mu| <= |lam|, the inner plethysm of s_lam by
  the permutation character h_{n-1,1} is sum_mu A[lam][mu] s_{(n-|mu|, mu)}
  (Orellana-Zabrocki's character values as functions of eigenvalues).
  This route runs no tilde code, and it certifies ``tilde-s-dual`` too.
- A ``charpoly --lambda lam --format json`` record is the character
  polynomial Xi^lam on the binomial basis prod_i C(m_i, n_i); at the
  cycle type mu of every n with (n - |lam|, lam) a partition, it is the
  irreducible character value chi^{(n-|lam|, lam)}_mu.
- ``braid --n n`` prints the characters of H^i of the pure braid group
  P_n; their dimensions are the coefficients of Arnold's Poincare
  polynomial prod_{k=1}^{n-1} (1 + k t), H^0 is trivial, and for n >= 4
  H^1 = s[n] + s[n-1,1] + s[n-2,2].  The characters themselves are those
  of the generating function prod_k (1 + p_k)^{ell_k(t)}
  (``test_braid_lehrer_solomon``).
"""

import json
import re
from fractions import Fraction
from math import comb, factorial, prod

from symcalc.innerpleth import inner_plethysm
from symcalc.partitions import multiplicities, partitions_of, partitions_up_to
from symcalc.symfunc import convert, homog, mn_character, schur

from oracles import conjugate, vector_partition_count
from test_braid_lehrer_solomon import _cli_text, _ref_braid_poincare
from test_golden import PATH

MAX_N = 9


def _records() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return {tuple(r["argv"]): r for r in json.load(fh)}


def _shape(digits: str) -> tuple:
    """A part is one digit at these degrees (h21 is h_{2,1}); ts0 is ts_()."""
    return () if digits == "0" else tuple(map(int, digits))


# The basis names of a section's lines, head_lam = sum coefficient body_mu.
_NAMES = {"inner-plethysm": ("h", "h"), "perm-chars": ("h", "h"),
          "h-on-tilde-h": ("h", "th"), "tilde-h-dual": ("th", "m"),
          "schur-on-tilde-s": ("s", "ts"), "tilde-s-dual": ("ts", "s")}


def _table(section: str, degree: int) -> dict:
    """{lam: {mu: coefficient}} of one recorded ``tables`` section; every
    line must use the section's two basis names."""
    head_name, body_name = _NAMES[section]
    record = _records()[("tables", "--section", section, "--max-degree",
                         str(degree))]
    assert record["exit"] == 0 and record["stderr"] == ""
    rows = {}
    for line in record["stdout"].splitlines():
        head, body = re.fullmatch(rf"\W*{head_name}(\d+)\W* = \W*(.*?)\W*",
                                  line).groups()
        body = body.replace(" + ", " ")
        terms = list(re.finditer(rf"\s*(-?)\s*(\d*)\s*{body_name}(\d+)",
                                 body))
        assert "".join(t[0] for t in terms) == body, line
        row = rows[_shape(head)] = {}
        for sign, coeff, name in (t.groups() for t in terms):
            row[_shape(name)] = (-1 if sign else 1) * int(coeff or 1)
    return rows


def _columns(rows: dict) -> dict:
    columns: dict = {}
    for lam, row in rows.items():
        for mu, c in row.items():
            columns.setdefault(mu, {})[lam] = c
    return columns


def test_inner_plethysm_and_perm_chars_tables_are_inverse():
    c = _table("inner-plethysm", 7)
    t = _table("perm-chars", 7)
    assert len(c) == len(t) == 44 and set(c) == set(t)
    for lam, row in c.items():
        product = {}
        for mu, a in row.items():
            for nu, b in t[mu].items():
                product[nu] = product.get(nu, 0) + a * b
        assert {nu: v for nu, v in product.items() if v} == {lam: 1}, lam


def test_inner_plethysm_entries_are_vector_partition_counts():
    c = _table("inner-plethysm", 7)
    entries = nonzero = 0
    for lam in partitions_up_to(6):
        for mu in partitions_up_to(sum(lam)):
            if lam and mu:
                want = vector_partition_count(lam, mu)
                assert c[lam].get(mu, 0) == want, (lam, mu)
                entries, nonzero = entries + 1, nonzero + bool(want)
    assert (entries, nonzero) == (525, 197)


def test_charpoly_records_are_irreducible_character_values():
    checked = 0
    for argv, record in _records().items():
        if argv[0] != "charpoly" or argv[-1] != "json":
            continue
        lam = tuple(map(int, argv[argv.index("--lambda") + 1].split(",")))
        assert record["exit"] == 0 and record["stderr"] == ""
        terms = [(tuple(t["nu"]), Fraction(t["coeff"]))
                 for t in json.loads(record["stdout"])]
        for n in range(sum(lam) + lam[0], MAX_N + 1):
            for mu in partitions_of(n):
                m = multiplicities(mu)
                value = sum(c * prod(comb(m.get(i, 0), k)
                                     for i, k in multiplicities(nu).items())
                            for nu, c in terms)
                assert value == mn_character((n - sum(lam),) + lam, mu), \
                    (lam, mu)
                checked += 1
    assert checked == 430


def test_the_sections_printing_the_c_and_a_matrices_agree():
    c = _table("inner-plethysm", 7)
    assert _table("h-on-tilde-h", 7) == c and len(c) == 44
    for dual, matrix in [("tilde-h-dual", c),
                         ("tilde-s-dual", _table("schur-on-tilde-s", 7))]:
        printed, columns = _table(dual, 7), _columns(matrix)
        assert len(printed) == 29, dual
        for mu, column in printed.items():
            assert column == columns[mu], (dual, mu)


def test_schur_on_tilde_s_rows_are_inner_plethysms_by_perm_chars():
    a = _table("schur-on-tilde-s", 7)
    entries = 0
    for lam, row in a.items():
        n = 2 * sum(lam)
        got = convert(inner_plethysm(schur(lam), homog([n - 1, 1])), "s")
        assert got.terms == {(n - sum(mu),) + mu: c
                             for mu, c in row.items()}, lam
        entries += len(row)
    assert (len(a), entries) == (44, 547)


def _dimension(lam: tuple) -> int:
    """The number of standard tableaux of shape lam, by the hook lengths."""
    cols = conjugate(lam)
    return factorial(sum(lam)) // prod(
        lam[i] - j + cols[j] - i - 1
        for i in range(len(lam)) for j in range(lam[i]))


def test_braid_records_have_arnolds_betti_numbers():
    records = _records()
    for n in range(1, 9):
        record = records[("braid", "--n", str(n))]
        assert record["exit"] == 0 and record["stderr"] == ""
        poincare = [1]
        for k in range(1, n):
            poincare = [a + k * b for a, b in zip(poincare + [0],
                                                  [0] + poincare)]
        lines = record["stdout"].splitlines()
        dims = []
        for i, line in enumerate(lines):
            head, body = line.split(": ")
            terms = re.findall(r"(?:(\d+)\*)?s\[([\d,]+)\]", body)
            assert head == f"H^{i}" and len(terms) == body.count("s[")
            assert "-" not in body, line
            dims.append(sum(int(c or 1) * _dimension(
                tuple(map(int, shape.split(",")))) for c, shape in terms))
        assert dims == poincare, n
        assert lines[0] == f"H^0: s[{n}]"
        if n >= 4:
            assert lines[1] == f"H^1: s[{n}] + s[{n - 1},1] + s[{n - 2},2]"


def test_braid_records_are_the_generating_function_characters():
    records = _records()
    for n in range(1, 9):
        record = records[("braid", "--n", str(n))]
        assert record["exit"] == 0 and record["stderr"] == ""
        assert record["stdout"] == _cli_text(_ref_braid_poincare(n), "text"), n
