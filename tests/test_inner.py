from fractions import Fraction

from symcalc.coeffs import ParamPoly
from symcalc.innerpleth import (adams, eigenvalue_eval, graded_poly_char,
                                inner_plethysm, perm_char)
from symcalc.partitions import (multiplicities, partitions_of,
                                partitions_up_to, power_cycle_type, z_value)
from symcalc.symfunc import (SymExpr, elem, hall_scalar, homog, internal,
                             mn_character, multiply, power, schur)


def test_adams_identity_and_unit():
    for lam in partitions_of(4):
        f = schur(lam)
        assert adams(f, 1) == f.in_basis("s")
        assert inner_plethysm(power([1]), f) == f.in_basis("s")
        assert inner_plethysm(homog([1]), f) == f.in_basis("s")


def test_adams_composition():
    f = schur([3, 1])
    for k in (2, 3):
        for j in (2, 3):
            assert adams(adams(f, k), j) == adams(f, k * j)


def test_adams_char_values():
    # psi_k acts on characters by chi(g) -> chi(g^k)
    from symcalc.partitions import power_cycle_type
    f = schur([3, 1])
    for k in (2, 3):
        g = adams(f, k)
        for mu in partitions_of(4):
            assert hall_scalar(g, power(mu)) == \
                mn_character((3, 1), power_cycle_type(mu, k))


def test_inner_plethysm_is_internal_ring_morphism():
    # (g1 g2)^[f] = g1^[f] * g2^[f] (internal product on the right)
    f = schur([2, 1])
    a = inner_plethysm(multiply(power([2]), power([1])), f)
    b = internal(inner_plethysm(power([2]), f),
                 inner_plethysm(power([1]), f))
    assert a == b


def test_exterior_and_symmetric_square():
    # h_2^[f] + e_2^[f] = f * f (internal square)
    f = homog([3, 1]).in_basis("s")
    h2 = inner_plethysm(homog([2]), f)
    e2 = inner_plethysm(elem([2]), f)
    assert h2 + e2 == internal(f, f)
    assert e2 == schur([3, 1]) + schur([2, 1, 1])
    assert h2 == schur([4], 2) + schur([3, 1], 2) + schur([2, 2])


def test_e2_s41():
    assert inner_plethysm(elem([2]), schur([4, 1])) == schur([3, 1, 1])


def test_ek_identities():
    # sum_k (-1)^k e_k^[f] evaluated: h_k + e_k decomposition of psi tower:
    # e_k^[s_lam] + h_k^[s_lam] pieces reassemble k-th internal powers
    for n in range(2, 6):
        f = perm_char(n)
        lhs = internal(f, f)
        rhs = inner_plethysm(homog([2]), f) + inner_plethysm(elem([2]), f)
        assert lhs == rhs


def test_eigenvalue_alphabet():
    # p_r evaluated on the eigenvalue alphabet of a permutation with cycle
    # type mu counts fixed points of the r-th power
    from symcalc.partitions import power_cycle_type
    for mu in partitions_of(5):
        for r in (1, 2, 3, 4):
            fixed = multiplicities(power_cycle_type(mu, r)).get(1, 0)
            assert eigenvalue_eval(power([r]), mu) == fixed
    # character of s_21 on the eigenvalue alphabet of the identity in S_3:
    # dimension of the GL weight-space construction = 8 for Omega_{111}
    assert eigenvalue_eval(schur([2, 1]), (1, 1, 1)) == 8


def test_eigenvalue_consistency_with_inner_plethysm():
    # g^[h_{n-1,1}] evaluated at mu equals g evaluated on Omega_mu
    g = schur([2])
    for n in (3, 4):
        f = perm_char(n)
        gf = inner_plethysm(g, f)
        for mu in partitions_of(n):
            assert hall_scalar(gf, power(mu)) == eigenvalue_eval(g, mu)


def test_perm_char():
    assert perm_char(1) == homog([1])
    assert perm_char(4) == homog([3, 1])
    # perm_char is the character of the permutation action on n points
    for n in range(2, 6):
        f = perm_char(n).in_basis("s")
        assert f.coefficient((n,)) == 1
        assert f.coefficient((n - 1, 1)) == 1


def test_graded_poly_char():
    # degree-by-degree character of polynomial functions on n points
    f = graded_poly_char(2, 3)
    # q^0: trivial; q^1: permutation character h_1 h_1 pieces
    c0 = f.coefficient((2,))
    assert c0.subs({"q": Fraction(0)}) == 1
    total = f.in_basis("h")
    assert total.coefficient((1, 1)).subs({"q": Fraction(1)}) >= 1


def _adams_in_p(fp, n, k):
    # p-basis Adams operation: the coefficient of p_{psi_k(nu)} moves to
    # p_nu, rescaled by z_{psi_k(nu)} / z_nu
    out = {}
    for nu in partitions_of(n):
        src = power_cycle_type(nu, k)
        if src in fp:
            out[nu] = fp[src] * Fraction(z_value(src), z_value(nu))
    return out


def _inner_plethysm_by_adams(g, f):
    # reference: each p_mu^[f] is the Kronecker product, in the p basis, of
    # the Adams operations of the parts of mu; the empty mu is the unit h_n
    n = f.degree()
    fp = f.in_basis("p").terms
    unit = homog([n] if n else []).in_basis("p").terms
    result = SymExpr(f.basis)
    adams_cache = {}
    for mu, c in g.in_basis("p").terms.items():
        piece = unit
        for k in mu:
            if k not in adams_cache:
                adams_cache[k] = _adams_in_p(fp, n, k)
            factor = adams_cache[k]
            piece = {nu: a * factor[nu] * z_value(nu)
                     for nu, a in piece.items() if nu in factor}
        result = result + SymExpr("p", piece).in_basis(f.basis) * c
    return result


def test_inner_plethysm_matches_adams_kronecker_chain():
    gs = [homog([2]), elem([3]), power([2, 1]), schur([2, 1]),
          homog([1]) + 3, SymExpr("s", {(): Fraction(2)}),
          homog([2]) * ParamPoly.var("t") + power([3])]
    for lam in partitions_up_to(6):
        for f in (schur(lam), homog(lam)):
            for g in gs:
                assert inner_plethysm(g, f) == \
                    _inner_plethysm_by_adams(g, f), (g, f)
