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
- A ``charpoly --lambda lam --format json`` record is the character
  polynomial Xi^lam on the binomial basis prod_i C(m_i, n_i); at the
  cycle type mu of every n with (n - |lam|, lam) a partition, it is the
  irreducible character value chi^{(n-|lam|, lam)}_mu.
"""

import json
import re
from fractions import Fraction
from math import comb, prod

from symcalc.partitions import multiplicities, partitions_of, partitions_up_to
from symcalc.symfunc import mn_character

from oracles import vector_partition_count
from test_golden import PATH

MAX_N = 9


def _records() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return {tuple(r["argv"]): r for r in json.load(fh)}


def _table(section: str, degree: int) -> dict:
    """{lam: {mu: coefficient}} of one recorded ``tables`` section; a part
    is one digit at these degrees (h21 is h_{2,1})."""
    record = _records()[("tables", "--section", section, "--max-degree",
                         str(degree))]
    assert record["exit"] == 0 and record["stderr"] == ""
    rows = {}
    for line in record["stdout"].splitlines():
        head, body = re.fullmatch(r"\W*h(\d+)\W* = \W*(.*?)\W*",
                                  line).groups()
        row = rows[tuple(map(int, head))] = {}
        for sign, coeff, name in re.findall(r"(-?)\s*(\d*)\s*h(\d+)",
                                            body.replace(" + ", " ")):
            row[tuple(map(int, name))] = (-1 if sign else 1) * int(coeff or 1)
    return rows


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
