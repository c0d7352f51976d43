import itertools
import math
from fractions import Fraction

from symcalc.apps import (braid_poincare, endofunction_signature,
                          gay_restriction, gay_restriction_perm,
                          littlewood_pair, stable_cohomology,
                          stable_weight_orbits, weight_orbit_decomposition)
from symcalc.innerpleth import inner_plethysm, perm_char
from symcalc.partitions import partitions_of, partitions_up_to
from symcalc.stable import evaluate_at_n, to_angle_basis
from symcalc.symfunc import (hall_scalar, homog, mono, multiply, schur)
from oracles import map_coeffs


def test_littlewood_duality_suite():
    # <g^[h_{n-1,1}], f> = <g, f o sigma_1> for g = h_mu, f = s_nu or h_nu
    from symcalc.alphabets import outer_plethysm, sigma_series
    for n in range(2, 8):
        f_char = perm_char(n)
        for d in range(1, 5):
            for mu in partitions_of(d):
                g = homog(mu)
                gf = inner_plethysm(g, f_char)
                for nu in partitions_of(n):
                    for mk in (schur, homog):
                        f = mk(nu)
                        lhs = hall_scalar(gf, f)
                        rhs = littlewood_pair(g, f, d)
                        assert lhs == rhs, (mu, nu, n, mk)


def test_gay_restriction():
    assert gay_restriction((3, 2, 1), 2) == schur([2, 1]).in_basis("s")
    assert gay_restriction((3, 2, 1), 4) == schur([]) * 0
    assert gay_restriction((2,), 2) == schur([1]).in_basis("s")


def test_gay_restriction_perm():
    # ch of the Schur functor S^{321}(C^3) restricted to S_3
    got = gay_restriction_perm((3, 2, 1), 2)
    assert got == homog([2, 1]) + homog([1, 1, 1], 2)


def _tmono(coef, *exps):
    """ParamPoly monomial coef * t0^e0 t1^e1 ... from sparse (index, exp)."""
    from symcalc.coeffs import ParamPoly
    out = ParamPoly.const(coef, params=())
    for idx, e in exps:
        out = out * ParamPoly.var(f"t{idx}") ** e
    return out


def test_weight_orbit_decomposition_v321():
    # V_321 of GL(3) restricted to S_3, graded by weight orbits:
    # t1t2t3 s111 + (t2^3 + 2 t1t2t3) s21 + t1t2t3 s3
    got = weight_orbit_decomposition(schur([3, 2, 1]), 3, 6)
    t123 = _tmono(1, (1, 1), (2, 1), (3, 1))
    assert got.coefficient((1, 1, 1)) == t123
    assert got.coefficient((3,)) == t123
    assert got.coefficient((2, 1)) == _tmono(1, (2, 3)) + t123 * 2


def test_weight_orbit_decomposition_s321():
    # Schur functor S^{321}(C^3) in the permutation-module grading
    got = weight_orbit_decomposition(homog([3, 2, 1]), 3, 6)
    h111 = (_tmono(2, (2, 3)) + _tmono(12, (1, 1), (2, 1), (3, 1))
            + _tmono(3, (0, 1), (3, 2)) + _tmono(3, (1, 2), (4, 1))
            + _tmono(5, (0, 1), (2, 1), (4, 1))
            + _tmono(3, (0, 1), (1, 1), (5, 1)))
    h21 = (_tmono(1, (2, 3)) + _tmono(2, (1, 2), (4, 1))
           + _tmono(1, (0, 2), (6, 1)))
    assert got.coefficient((1, 1, 1)) == h111
    assert got.coefficient((2, 1)) == h21
    assert got.coefficient((3,)) == 0 or not got.coefficient((3,))


def test_weight_orbits_carry_only_the_weights_up_to_the_degree():
    # weights above deg f are cut with the tail: a max weight past deg f
    # gives the same result, over the params t_0 .. t_{deg f} only
    for f in (schur([2, 1]), homog([3, 1]), mono([2, 2]), schur([4])):
        d = f.degree()
        allowed = {f"t{j}" for j in range(d + 1)}
        for n in range(d + 1):
            got = weight_orbit_decomposition(f, n, d + 5)
            want = weight_orbit_decomposition(f, n, d)
            assert got.terms == want.terms, (f, n)
            assert got.to_json() == want.to_json()
            assert all(set(c.params) <= allowed
                       for c in got.terms.values()), (f, n)


def test_weight_orbits_sum_to_dimension():
    # setting every t_j = 1 recovers the full restriction; its dimension
    # equals dim of the GL_n module, i.e. s_lam(1^n)
    for lam, n in [((2, 1), 2), ((3, 1), 3), ((3, 2, 1), 3)]:
        got = weight_orbit_decomposition(schur(lam), n, sum(lam))
        subs = {f"t{j}": Fraction(1) for j in range(0, sum(lam) + 1)}
        total = Fraction(0)
        for mu, c in got.terms.items():
            val = c.subs(subs) if hasattr(c, "subs") else Fraction(c)
            # dimension of the S_n irreducible times multiplicity
            from symcalc.symfunc import mn_character
            total += val * mn_character(mu, (1,) * n)
        assert total == _schur_dim(lam, n), (lam, n)


def _schur_dim(lam, n):
    # s_lam(1^n) via the power-sum expansion: p_k(1^n) = n
    total = Fraction(0)
    f = schur(lam).in_basis("p")
    for nu, c in f.terms.items():
        total += c * Fraction(n) ** len(nu)
    return total


def test_stable_weight_orbits():
    # stable decomposition of the third symmetric power: the t3 term is
    # the stable permutation character <<1>>
    sc = stable_weight_orbits(homog([3]))
    red = sc.reduced.in_basis("h")
    c1 = red.coefficient((1,))
    poly = {exps: v for exps, v in c1.terms.items()}
    # coefficient of t3 on <<1>>: exponent vector with t3 = 1
    names = c1.params
    t3_hit = any(v == 1 and
                 all((e == 1) == (names[i] == "t3") for i, e in enumerate(exps))
                 for exps, v in poly.items())
    assert t3_hit


def test_endofunction_signature_small():
    sig3 = endofunction_signature(3)
    assert sum(sig3.terms.values()) == 7
    sig4 = endofunction_signature(4)
    assert sum(sig4.terms.values()) == 19


def _burnside_endofunctions(n):
    # number of orbits of S_n acting on maps [n] -> [n] by conjugation
    total = 0
    count = 0
    from symcalc.partitions import multiplicities, z_value
    for mu in partitions_of(n):
        # number of endofunctions commuting with a permutation of type mu,
        # counted by brute force on a representative
        perm = []
        start = 0
        for part in mu:
            perm.extend(list(range(start + 1, start + part)) + [start])
            start += part
        fixed = 0
        for f in itertools.product(range(n), repeat=n):
            if all(f[perm[i]] == perm[f[i]] for i in range(n)):
                fixed += 1
        total += fixed * (math.factorial(n) // z_value(mu))
    return total // math.factorial(n)


def test_endofunction_burnside_oracle():
    for n in range(1, 5):
        sig = endofunction_signature(n)
        assert sum(sig.terms.values()) == _burnside_endofunctions(n)


def test_braid_poincare_small():
    p2 = braid_poincare(2)
    assert p2[0] == schur([2]).in_basis("s")
    assert p2[1] == schur([2]).in_basis("s")
    p3 = braid_poincare(3)
    assert p3[0] == schur([3]).in_basis("s")
    assert p3[1] == schur([3]) + schur([2, 1])
    assert p3[2] == schur([2, 1]).in_basis("s")


def test_braid_poincare_euler_characteristic():
    # alternating sum of H^i is the regular-representation-free identity:
    # chi(P_n) = prod (1 - k t) at t=1 -> 0 for n >= 2 in the character ring
    for n in (3, 4, 5):
        chs = braid_poincare(n)
        alt = chs[0]
        for i, ch in enumerate(chs[1:], start=1):
            alt = alt + ch * ((-1) ** i)
        # Euler characteristic of the ordered configuration space vanishes
        # as a virtual character for n >= 2... its dimension is 0
        assert hall_scalar(alt, _p1n(n)) == 0


def _p1n(n):
    from symcalc.symfunc import power
    return power((1,) * n)


def test_braid_dimensions_are_stirling():
    # dim H^i(P_n) = c(n, n-i), unsigned Stirling numbers of the first kind
    for n in range(3, 13):
        chs = braid_poincare(n)
        dims = [hall_scalar(ch, _p1n(n)) for ch in chs]
        # prod_{k=1}^{n-1} (1 + k x) has coefficients c(n, n-i)
        poly = [1]
        for k in range(1, n):
            poly = [a + k * b for a, b in
                    zip(poly + [0], [0] + poly)]
        assert dims == poly, n


def test_braid_schur_positive():
    for n in (2, 3, 4, 5):
        for ch in braid_poincare(n):
            assert all(c > 0 for c in ch.in_basis("s").terms.values()), n


def test_stable_cohomology_h2():
    sc = stable_cohomology(2)
    # sigma_1 (s_21 + s_31): reduced part is s_21 + s_31 smeared by sigma
    for n in (5, 6, 7):
        got = evaluate_at_n(sc, n)
        want = braid_poincare(n)[2]
        assert got == want, n


def test_stable_cohomology_matches_finite():
    for i in (0, 1, 3):
        sc = stable_cohomology(i)
        for n in (2 * i + 2, 2 * i + 3):
            if n < 2:
                continue
            got = evaluate_at_n(sc, n)
            want = braid_poincare(n)[i] if i < n else schur([]) * 0
            assert got == want, (i, n)


def subs_params(f, values: dict):
    """f with the parameters named in values set to those values."""
    from symcalc.coeffs import ParamPoly
    return map_coeffs(
        f, lambda c: c.subs(values) if isinstance(c, ParamPoly) else c)


def test_stable_weight_orbits_evaluate_to_weight_orbits_at_every_n():
    # sigma_1 sum_mu <h_lam, m_mu[t_1 h_1 + ...]> h_mu at S_n is the
    # weight-orbit decomposition with the weight-0 marker t_0 set to 1
    from symcalc.symfunc import convert
    for lam in partitions_up_to(4):
        sc = stable_weight_orbits(homog(lam))
        for n in range(1, 8):
            finite = weight_orbit_decomposition(homog(lam), n, sum(lam))
            assert evaluate_at_n(sc, n) == \
                convert(subs_params(finite, {"t0": 1}), "s"), (lam, n)
