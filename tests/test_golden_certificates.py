"""Certificates for the golden CLI corpus: answers recorded in
``data/golden/cli.json`` are checked against identities they must satisfy,
read from the file alone, so a wrong recording cannot pass as a snapshot.

- The ``inner-plethysm`` lines give the matrix C with [h_lam] = sum_mu
  C[lam][mu] <<h_mu>>, the ``perm-chars`` lines the matrix T with
  <<h_lam>> = sum_mu T[lam][mu] [h_mu]; they are inverse, C T = I.
- A ``charpoly --lambda lam --format json`` record is the character
  polynomial Xi^lam on the binomial basis prod_i C(m_i, n_i); at the
  cycle type mu of every n with (n - |lam|, lam) a partition, it is the
  irreducible character value chi^{(n-|lam|, lam)}_mu.
"""

import json
import re
from fractions import Fraction
from math import comb, prod

from symcalc.partitions import multiplicities, partitions_of
from symcalc.symfunc import mn_character

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
