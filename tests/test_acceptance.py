"""End-to-end acceptance checks, one printed PASS line per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
printed lines even on success).  Every comparison is exact.
"""

import itertools
import math
import os
import sys
from fractions import Fraction

from symcalc.alphabets import (TruncatedSeries, invert_sigma, lie_character,
                               outer_plethysm, sigma_series)
from symcalc.apps import (braid_poincare, endofunction_signature,
                          gay_restriction, gay_restriction_perm,
                          littlewood_pair, stable_cohomology,
                          weight_orbit_decomposition)
from symcalc.coeffs import ParamPoly
from symcalc.innerpleth import inner_plethysm, perm_char
from symcalc.partitions import partitions_of, partitions_up_to, z_value
from symcalc.stable import (StableChar, angle, character_polynomial, dangle,
                            evaluate_at_n, reduced_kron,
                            stable_inner_plethysm, stable_kron, tilde_s,
                            to_angle_basis, transition)
from symcalc.symfunc import (SymExpr, elem, hall_scalar, homog, internal,
                             lr_coefficient, mn_character, power, schur)
from symcalc.tables import render_table
from oracles import eval_cycle_type, vector_partition_count

HERE = os.path.dirname(__file__)


def _report(num, text):
    print(f"PASS criterion {num}: {text}", file=sys.stderr)


def test_criterion_01_kronecker_s41():
    got = internal(schur([4, 1]), schur([4, 1]))
    want = schur([5]) + schur([4, 1]) + schur([3, 2]) + schur([3, 1, 1])
    assert got == want
    _report(1, "s41 * s41 = s5 + s41 + s32 + s311")


def test_criterion_02_ek_inner_plethysm_identities():
    from symcalc.symfunc import multiply
    for n in range(1, 8):
        f_h = perm_char(n)
        f_s = schur([n - 1, 1]) if n >= 2 else schur([1])
        for k in range(0, n + 1):
            got_h = inner_plethysm(elem([k] if k else []), f_h)
            want_h = multiply(homog([n - k] if n > k else []),
                              elem([k] if k else [])).in_basis(got_h.basis)
            assert got_h == want_h, ("h", n, k)
            if n >= 2:
                got_s = inner_plethysm(elem([k] if k else []), f_s)
                if k == n:
                    # s_{0,1^n} straightens to zero
                    want_s = (schur([1]) - schur([1])).in_basis(got_s.basis)
                else:
                    want_s = schur((n - k,) + (1,) * k).in_basis(got_s.basis)
                assert got_s == want_s, ("s", n, k)
    _report(2, "e_k inner plethysms on h_{n-1,1} and s_{n-1,1}, n <= 7")


def test_criterion_03_stable_kronecker_basics():
    assert to_angle_basis(stable_kron(angle([1]), angle([1]))) == \
        {(2,): 1, (1, 1): 1, (1,): 1, (): 1}
    h2 = stable_inner_plethysm(homog([2]), angle([1]))
    assert to_angle_basis(h2) == {(2,): 1, (1,): 1, (): 1}
    e2 = stable_inner_plethysm(elem([2]), angle([1]))
    assert to_angle_basis(e2) == {(1, 1): 1}
    _report(3, "<1>*<1>, h2-hat<1>, e2-hat<1>")


def test_criterion_04_tables_byte_identical():
    for sec, k in [("inner-plethysm", 4), ("perm-chars", 4),
                   ("tilde-s-dual", 5), ("schur-on-tilde-s", 4),
                   ("tilde-h-dual", 5), ("h-on-tilde-h", 4)]:
        ref = os.path.join(HERE, "data", "tables", f"{sec}-{k}.txt")
        with open(ref, "rb") as fh:
            expected = fh.read()
        got = render_table(sec, k).encode()
        assert got == expected, sec
    # spot-check the quoted line
    assert "<<h1111>> = [h1111 - 6 h111 + 11 h11 - 6 h1]" in \
        render_table("perm-chars", 4)
    _report(4, "all six tables regenerate byte-identically")


def test_criterion_05_tilde_s22():
    got = tilde_s((2, 2)).in_basis("s")
    want = (schur([2, 2]) - schur([3]) + schur([2, 1], -2)
            + schur([1, 1], 4) + schur([2], 2) - schur([1]))
    assert got == want
    expected = {2: schur([1, 1]), 3: schur([1, 1, 1]), 4: SymExpr.zero(),
                5: SymExpr.zero(), 6: schur([2, 2, 2]),
                7: schur([3, 2, 2])}
    for n, want_n in expected.items():
        got_n = inner_plethysm(tilde_s((2, 2)), perm_char(n))
        assert got_n == want_n.in_basis("s"), n
    _report(5, "tilde-s_22 expansion and its six evaluations")


def test_criterion_06_character_polynomials():
    # known closed forms on m_1, m_2 (binomial-expanded)
    cp1 = character_polynomial((1,))
    assert eval_cycle_type(cp1, (1, 1, 1, 1)) == 3
    assert eval_cycle_type(cp1, (2, 2)) == -1
    # Xi^(2) = m2 + C(m1,2) - m1, Xi^(11) = C(m1,2) - m2 - m1 + 1
    cp2 = character_polynomial((2,))
    cp11 = character_polynomial((1, 1))
    for mults in itertools.product(range(4), repeat=3):
        m = {1: mults[0], 2: mults[1], 3: mults[2]}
        m1, m2 = m[1], m[2]
        assert cp1.evaluate(m) == m1 - 1
        assert cp2.evaluate(m) == m2 + math.comb(m1, 2) - m1
        assert cp11.evaluate(m) == math.comb(m1, 2) - m2 - m1 + 1
    for lam in [l for l in partitions_up_to(3) if l]:
        cp = character_polynomial(lam)
        for n in range(5, 9):
            if n < sum(lam) + lam[0]:
                continue
            full = (n - sum(lam),) + lam
            for mu in partitions_of(n):
                assert eval_cycle_type(cp, mu) == mn_character(full, mu)
    _report(6, "character polynomials vs Murnaghan-Nakayama, |lam|<=3, n<=8")


def test_criterion_07_gay_and_weights():
    assert gay_restriction((3, 2, 1), 2) == schur([2, 1]).in_basis("s")
    assert gay_restriction_perm((3, 2, 1), 2) == \
        homog([2, 1]) + homog([1, 1, 1], 2)

    def tmono(coef, *exps):
        out = ParamPoly.const(coef, params=())
        for idx, e in exps:
            out = out * ParamPoly.var(f"t{idx}") ** e
        return out

    got = weight_orbit_decomposition(schur([3, 2, 1]), 3, 6)
    t123 = tmono(1, (1, 1), (2, 1), (3, 1))
    assert got.coefficient((1, 1, 1)) == t123
    assert got.coefficient((2, 1)) == tmono(1, (2, 3)) + t123 * 2
    assert got.coefficient((3,)) == t123
    _report(7, "Gay restriction and V_321 weight-orbit decomposition")


def test_criterion_08_endofunctions():
    def tmono(coef, *exps):
        out = ParamPoly.const(coef, params=())
        for idx, e in exps:
            out = out * ParamPoly.var(f"t{idx}") ** e
        return out

    sig3 = endofunction_signature(3)
    assert sig3 == tmono(3, (1, 3)) + tmono(3, (2, 1), (1, 1)) + \
        tmono(1, (3, 1))
    sig4 = endofunction_signature(4)
    assert sig4 == (tmono(5, (1, 4)) + tmono(7, (2, 1), (1, 2))
                    + tmono(3, (2, 2)) + tmono(3, (3, 1), (1, 1))
                    + tmono(1, (4, 1)))
    for n in range(1, 6):
        total = sum(endofunction_signature(n).terms.values())
        assert total == _burnside(n), n
    _report(8, "endofunction signatures n=3,4 and Burnside totals n<=5")


def _burnside(n):
    total = 0
    for mu in partitions_of(n):
        perm = []
        start = 0
        for part in mu:
            perm.extend(list(range(start + 1, start + part)) + [start])
            start += part
        fixed = sum(
            1 for f in itertools.product(range(n), repeat=n)
            if all(f[perm[i]] == perm[f[i]] for i in range(n)))
        total += fixed * (math.factorial(n) // z_value(mu))
    return total // math.factorial(n)


def test_criterion_09_braid_cohomology():
    p2 = braid_poincare(2)
    assert p2 == [schur([2]).in_basis("s"), schur([2]).in_basis("s")]
    p3 = braid_poincare(3)
    assert p3 == [schur([3]).in_basis("s"),
                  schur([3]) + schur([2, 1]),
                  schur([2, 1]).in_basis("s")]
    p4 = braid_poincare(4)
    assert p4 == [schur([4]).in_basis("s"),
                  schur([4]) + schur([3, 1]) + schur([2, 2]),
                  schur([3, 1], 2) + schur([2, 2]) + schur([2, 1, 1]),
                  schur([3, 1]) + schur([2, 1, 1])]
    h2 = stable_cohomology(2)
    assert h2 == StableChar(schur([2, 1]) + schur([3, 1]))
    assert evaluate_at_n(h2, 4) == p4[2]
    _report(9, "braid cohomology P2-P4 and the stable H^2 class")


def test_criterion_10_littlewood_duality():
    for n in range(2, 8):
        f_char = perm_char(n)
        for d in range(1, 5):
            gs = [homog(mu) for mu in partitions_of(d)]
            for nu in partitions_of(n):
                for f in (schur(nu), homog(nu)):
                    for g in gs:
                        lhs = hall_scalar(inner_plethysm(g, f_char), f)
                        rhs = littlewood_pair(g, f, d)
                        assert lhs == rhs, (g, nu, n)
    _report(10, "Littlewood duality, deg g <= 4, n <= 7")


def test_criterion_11_oracle_equivalence():
    # reduced Kronecker vs finite-n internal products at consecutive n
    for lam in [l for l in partitions_up_to(3) if l]:
        for mu in [m for m in partitions_up_to(3) if m]:
            prod = stable_kron(angle(lam), angle(mu))
            for n in (7, 8):
                lhs = evaluate_at_n(prod, n)
                rhs = internal(evaluate_at_n(angle(lam), n),
                               evaluate_at_n(angle(mu), n))
                assert lhs == rhs, (lam, mu, n)
    # c-matrix vs vector partition counts
    c = transition("c", 5)
    for (lam, mu), v in c.items():
        if lam and mu:
            assert v == vector_partition_count(lam, mu), (lam, mu)
    # Murnaghan-Nakayama vs Kostka inversion
    for n in range(1, 7):
        for mu in partitions_of(n):
            h = homog(mu).in_basis("s")
            hp = homog(mu).in_basis("p")
            for lam in partitions_of(n):
                k = sum(Fraction(mn_character(lam, nu), z_value(nu))
                        * hp.coefficient(nu) * z_value(nu)
                        for nu in partitions_of(n))
                assert h.coefficient(lam) == k
    # LR coefficients vs tableau enumeration
    from test_symfunc import _schur_expand, _ssyt_poly
    for n in range(2, 7):
        for k in range(1, n):
            for mu in partitions_of(k):
                a = _ssyt_poly(mu, n)
                for nu in partitions_of(n - k):
                    b = _ssyt_poly(nu, n)
                    prod = {}
                    for e1, c1 in a.items():
                        for e2, c2 in b.items():
                            key = tuple(x + y for x, y in zip(e1, e2))
                            prod[key] = prod.get(key, 0) + c1 * c2
                    expanded = _schur_expand(prod, n)
                    for lam in partitions_of(n):
                        assert expanded.get(lam, 0) == \
                            lr_coefficient(mu, nu, lam), (mu, nu, lam)
    _report(11, "oracle equivalences (reduced Kronecker, c-matrix, MN, LR)")


def test_criterion_12_pbw_koszul():
    cap = 6
    lie_sum = SymExpr.zero("p")
    for n in range(1, cap + 1):
        lie_sum = lie_sum + lie_character(n).in_basis("p")
    lhs = outer_plethysm(sigma_series("sigma", 1, cap).expr,
                         TruncatedSeries(lie_sum, cap)).expr
    geom = SymExpr("p", {(1,) * k: Fraction(1) for k in range(1, cap + 1)}) \
        + SymExpr.one("p")
    assert lhs.in_basis("p").truncate(cap) == geom
    m = invert_sigma(cap).expr
    lhs2 = outer_plethysm(sigma_series("sigma", 1, cap).expr,
                          TruncatedSeries(m, cap)).expr
    assert lhs2.in_basis("p").truncate(cap) == SymExpr.one("p") + power([1])
    _report(12, "PBW and Koszul inversion identities through degree 6")
