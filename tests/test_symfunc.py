import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from symcalc.partitions import partitions_of, partitions_up_to, z_value
from symcalc.symfunc import (SymExpr, elem, foulkes_derivative,
                             hall_scalar, homog, internal, lr_coefficient,
                             mn_character, mono, multiply, omega, power,
                             schur, skew_schur)
from oracles import conjugate, symexpr_from_json
from test_change_of_basis import _to_p

BASES = ("m", "e", "h", "p", "s")

small_partitions = st.sampled_from(
    [lam for lam in partitions_up_to(5) if lam])


@given(small_partitions, st.sampled_from(BASES), st.sampled_from(BASES))
def test_basis_roundtrip(lam, b1, b2):
    f = SymExpr(b1, {lam: Fraction(1)})
    assert f.in_basis(b2).in_basis(b1) == f


def test_schur_orthonormal():
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(5):
            expected = 1 if lam == mu else 0
            assert hall_scalar(schur(lam), schur(mu)) == expected


def test_h_m_duality():
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(5):
            expected = 1 if lam == mu else 0
            assert hall_scalar(homog(lam), mono(mu)) == expected


def test_p_orthogonality():
    for lam in partitions_up_to(6):
        if not lam:
            continue
        assert hall_scalar(power(lam), power(lam)) == z_value(lam)


def test_pieri_rule():
    # h_2 * s_21 adds a horizontal 2-strip
    f = multiply(homog([2]), schur([2, 1]))
    assert f == (schur([4, 1]) + schur([3, 2]) + schur([3, 1, 1])
                 + schur([2, 2, 1]))


def test_jacobi_trudi_h_via_e():
    # omega swaps h and e
    for lam in partitions_up_to(5):
        assert omega(homog(lam)) == elem(lam).in_basis("h")
        assert omega(schur(lam)) == schur(conjugate(lam)).in_basis("s")


@given(small_partitions, small_partitions)
@settings(deadline=None)
def test_multiply_commutes(lam, mu):
    assert multiply(schur(lam), schur(mu)) == multiply(schur(mu), schur(lam))


def test_internal_product_character_identity():
    # chi_lam(mu) = <s_lam, p_mu>; internal product is diagonal on p
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert hall_scalar(schur(lam), power(mu)) == \
                    mn_character(lam, mu)


def test_internal_identity_element():
    # h_n is the unit for the internal product in degree n
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert internal(homog([n]), schur(lam)) == schur(lam).in_basis("s")


def test_internal_sign_twist():
    # s_lam * e_n = s_{lam'}
    for n in range(2, 6):
        for lam in partitions_of(n):
            assert internal(elem([n]), schur(lam)).in_basis("s") == \
                schur(conjugate(lam))


def test_mn_character_table_row_sums():
    # column orthogonality at the identity: sum chi(1)^2 = n!
    import math
    for n in range(1, 7):
        one = (1,) * n
        assert sum(mn_character(lam, one) ** 2
                   for lam in partitions_of(n)) == math.factorial(n)


def test_mn_vs_kostka_inversion():
    # h_mu = sum_lam K_{lam mu} s_lam, and K via character: <h_mu, s_lam>
    for n in range(1, 7):
        for mu in partitions_of(n):
            h = homog(mu).in_basis("s")
            for lam in partitions_of(n):
                k = sum(Fraction(mn_character(lam, nu), z_value(nu))
                        * _p_coeff_of_h(mu, nu) for nu in partitions_of(n))
                assert h.coefficient(lam) == k


def _p_coeff_of_h(mu, nu):
    return homog(mu).in_basis("p").coefficient(nu) * z_value(nu)


def _m_in_p(lam: tuple):
    """m_lam in p, as (nu, [p_nu]m_lam) pairs."""
    return tuple(_to_p(SymExpr("m", {lam: 1})).items())


def _ssyt_poly(lam, nvars):
    """Schur polynomial in nvars variables as {exponent vector: count},
    by direct enumeration of semistandard tableaux."""
    if not lam:
        return {(0,) * nvars: 1}
    out = {}

    def fill(r, rows):
        if r == len(lam):
            exps = [0] * nvars
            for row in rows:
                for v in row:
                    exps[v - 1] += 1
            key = tuple(exps)
            out[key] = out.get(key, 0) + 1
            return
        width = lam[r]

        def rec(j, row):
            if j == width:
                fill(r + 1, rows + [row])
                return
            lo = row[j - 1] if j else 1
            if r and j < lam[r - 1]:
                lo = max(lo, rows[r - 1][j] + 1)
            for v in range(lo, nvars + 1):
                rec(j + 1, row + (v,))
        rec(0, ())

    fill(0, [])
    return out


def _schur_expand(poly, nvars):
    """Expand a symmetric polynomial dict into Schur coefficients by
    repeatedly stripping the lexicographically greatest monomial."""
    poly = dict(poly)
    coeffs = {}
    while True:
        poly = {e: c for e, c in poly.items() if c}
        if not poly:
            return coeffs
        lead = max(poly)
        assert all(lead[i] >= lead[i + 1] for i in range(nvars - 1))
        lam = tuple(x for x in lead if x)
        c = poly[lead]
        coeffs[lam] = c
        for e, k in _ssyt_poly(lam, nvars).items():
            poly[e] = poly.get(e, 0) - c * k


def test_lr_vs_tableau_enumeration():
    for n in range(1, 7):
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


def test_skew_schur_consistency():
    # <s_lam/mu, s_nu> = c^lam_{mu nu}
    f = skew_schur((3, 2, 1), (2, 1))
    for nu in partitions_of(3):
        assert f.coefficient(nu) == lr_coefficient((2, 1), nu, (3, 2, 1))


def test_foulkes_derivative_adjoint():
    # <D_f g, h> = <g, f h>
    for f, g, h in [(power([2]), schur([3, 1]), schur([2])),
                    (homog([2]), schur([2, 2, 1]), schur([2, 1])),
                    (elem([2, 1]), schur([3, 2, 1]), schur([2, 1]))]:
        assert hall_scalar(foulkes_derivative(f, g), h) == \
            hall_scalar(g, multiply(f, h))


def test_json_roundtrip():
    f = schur([3, 1]) + schur([2, 2], -2)
    assert symexpr_from_json(f.to_json()) == f


def test_m_to_p_rows_invert_monomial_counts():
    # Hall-duality rows of m -> p times the combinatorial p -> m count
    # give the identity at every degree up to 10
    from test_change_of_basis import _p_in_m_count
    for n in range(11):
        parts = partitions_of(n)
        for lam in parts:
            row = _m_in_p(lam)
            for mu in parts:
                total = sum((c * _p_in_m_count(nu, mu) for nu, c in row),
                            Fraction(0))
                assert total == (1 if lam == mu else 0), (lam, mu)


def test_h_m_duality_degree_10():
    parts = partitions_of(10)
    h = {lam: homog(lam).in_basis("p") for lam in parts}
    m = {mu: mono(mu).in_basis("p") for mu in parts}
    for lam in parts:
        for mu in parts:
            assert hall_scalar(h[lam], m[mu]) == (1 if lam == mu else 0)


def test_power_sum_h_roundtrip():
    for k in range(1, 13):
        in_h = power([k]).in_basis("h")
        assert in_h.basis == "h"
        back = in_h.in_basis("p")
        assert back.basis == "p" and back.terms == {(k,): 1}


def test_p_to_m_rows_match_monomial_counts():
    # p -> m by Hall duality with h agrees with counting monomials of p_nu
    from test_change_of_basis import _p_in_m_count
    for n in range(11):
        parts = partitions_of(n)
        for nu in parts:
            row = power(nu).in_basis("m").terms
            for mu in parts:
                assert row.get(mu, 0) == _p_in_m_count(nu, mu), (nu, mu)


def test_skew_is_adjoint_to_multiplication():
    # <D_f g, h> = <g, f h>: the defining property of the skew
    makers = (schur, homog, elem, power, mono)
    for d in range(7):
        for a in range(d + 1):
            for mu in partitions_of(a):
                f = makers[sum(mu) % 5](mu)
                for lam in partitions_of(d):
                    g = makers[len(lam) % 5](lam)
                    skew = foulkes_derivative(f, g)
                    for nu in partitions_of(d - a):
                        h = schur(nu)
                        assert hall_scalar(skew, h) == \
                            hall_scalar(g, multiply(f, h)), (mu, lam, nu)
