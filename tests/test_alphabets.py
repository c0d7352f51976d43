from fractions import Fraction

from symcalc.alphabets import (TruncatedSeries, _mobius, invert_sigma,
                               lie_character, outer_plethysm, scale_alphabet,
                               shift_alphabet, sigma_minus_one, sigma_series)
from symcalc.coeffs import ParamPoly, as_fraction
from symcalc.partitions import partitions_up_to
from symcalc.symfunc import (SymExpr, elem, hall_scalar, homog, mono, multiply,
                             power, schur)
from oracles import homogeneous_component, map_coeffs, mobius
from test_braid_lehrer_solomon import (_necklace_poly, binomial_exp_product,
                                      binomial_series_coeff)


def test_plethysm_p_substitution():
    # p_k o p_j = p_{kj}
    assert outer_plethysm(power([2]), power([3])) == power([6]).in_basis("p")
    assert outer_plethysm(power([3]), power([2])) == power([6]).in_basis("p")


def test_plethysm_h2_square():
    # h_2 o h_2 = h_4 - h_31 + h_22  (plethysm of complete functions)
    f = outer_plethysm(homog([2]), homog([2])).in_basis("s")
    assert f == schur([4]) + schur([2, 2])
    g = outer_plethysm(elem([2]), elem([2])).in_basis("s")
    assert g == schur([2, 1, 1])
    # symmetric square of the wedge square
    g2 = outer_plethysm(homog([2]), elem([2])).in_basis("s")
    assert g2 == schur([2, 2]) + schur([1, 1, 1, 1])


def test_plethysm_associative():
    fs = [homog([2]), elem([2]), power([2]) + power([1])]
    for f in fs:
        lhs = outer_plethysm(outer_plethysm(homog([2]), f), power([2]))
        rhs = outer_plethysm(homog([2]), outer_plethysm(f, power([2])))
        assert lhs.in_basis("p") == rhs.in_basis("p")


def test_plethysm_ring_morphism_in_first_slot():
    g = homog([2]) + power([1])
    a, b = schur([2]), schur([1, 1])
    lhs = outer_plethysm(multiply(a, b), g)
    rhs = multiply(outer_plethysm(a, g), outer_plethysm(b, g))
    assert lhs.in_basis("p") == rhs.in_basis("p")


def test_shift_alphabet_inverse():
    for lam in partitions_up_to(5):
        f = schur(lam)
        assert shift_alphabet(shift_alphabet(f, 1), -1) == f.in_basis("s")
        assert shift_alphabet(shift_alphabet(f, -1), 1) == f.in_basis("s")


def test_shift_alphabet_h():
    # h_n(X+1) = h_0 + h_1 + ... + h_n
    f = shift_alphabet(homog([3]), 1).in_basis("h")
    expected = sum((homog([k]) for k in range(1, 4)), SymExpr.one("h"))
    assert f == expected


def test_scale_alphabet_inverts():
    f = schur([2, 1])
    g = scale_alphabet(scale_alphabet(f, "X/(1-q)", 8), "(1-q)X", 8)
    assert map_coeffs(g.in_basis("s"), as_fraction) == f.in_basis("s")


def test_sigma_series_grouplike():
    # sigma_1 * lambda_{-1} = 1 (h and signed-e generating series are inverse)
    sig = sigma_series("sigma", 1, 6)
    lam = sigma_series("lambda", -1, 6)
    assert (sig * lam).expr == SymExpr.one("p").truncate(6)


def test_pbw_factorization():
    # sigma_1 o (sum of Lie characters) = 1/(1 - p_1), degree <= 6
    cap = 6
    lie_sum = SymExpr.zero("p")
    for n in range(1, cap + 1):
        lie_sum = lie_sum + lie_character(n).in_basis("p")
    lhs = outer_plethysm(sigma_series("sigma", 1, cap).expr,
                         TruncatedSeries(lie_sum, cap)).expr
    rhs = SymExpr("p", {(1,) * k: Fraction(1) for k in range(1, cap + 1)}) \
        + SymExpr.one("p")
    assert lhs.in_basis("p").truncate(cap) == rhs


def test_mobius_by_inversion_is_the_trial_division():
    assert [_mobius(n) for n in range(1, 1001)] == \
        [mobius(n) for n in range(1, 1001)]


def test_invert_sigma():
    # sigma_1 o M = 1 + p_1, degree <= 6
    m = invert_sigma(6).expr
    lhs = outer_plethysm(sigma_series("sigma", 1, 6).expr,
                         TruncatedSeries(m, 6)).expr
    assert lhs.in_basis("p").truncate(6) == \
        SymExpr.one("p") + power([1])
    # leading terms: M = p_1 - h_2 + ...
    assert homogeneous_component(m, 1).in_basis("p") == power([1])
    assert homogeneous_component(m, 2).in_basis("h") == homog([2], -1)


def test_sigma_minus_one_is_sum_of_h():
    sm1 = sigma_minus_one(5).expr.in_basis("h")
    expected = sum((homog([k]) for k in range(2, 6)), homog([1]))
    assert sm1 == expected


def test_lie_character_dimensions():
    # dim Lie(n) = (n-1)!: the coefficient of p_1^n is dim/n!
    import math
    for n in range(1, 7):
        ch = lie_character(n).in_basis("p")
        dim = ch.coefficient((1,) * n) * math.factorial(n)
        assert dim == math.factorial(n - 1)


def test_binomial_exp_product():
    # (1+p_1)^t, coefficient of t^k p_1^k is 1/k! * (falling factorial terms)
    ts = binomial_exp_product([Fraction(2)], 4)
    f = ts.expr.in_basis("p")
    assert f.coefficient((1,)) == 2
    assert f.coefficient((1, 1)) == 1  # C(2,2)


def _ref_binomial_exp_product(exponents, cap):
    """The product of the factors sum_k C(a_i, k) p_i^k as TruncatedSeries,
    one factor at a time: the earlier code, kept as the reference."""
    result = TruncatedSeries(SymExpr("p", {(): Fraction(1)}), cap)
    for i, a in enumerate(exponents, start=1):
        if i > cap:
            break
        terms = {}
        for k in range(cap // i + 1):
            c = binomial_series_coeff(a, k)
            if c:
                terms[(i,) * k] = c
        result = result * TruncatedSeries(SymExpr("p", terms), cap)
    return result


def _exact_terms(expr):
    """Terms with the coefficient type, and a ParamPoly's params and caps."""
    return {lam: (type(c), getattr(c, "params", None),
                  getattr(c, "caps", None), c)
            for lam, c in expr.terms.items()}


def test_binomial_exp_product_matches_factor_product():
    t = ParamPoly.var("t")
    cases = [([Fraction(2)], range(7)),
             ([Fraction(1, 2), Fraction(-3)], range(7)),
             ([t], range(7))]
    cases += [([_necklace_poly(i, n) for i in range(1, n + 1)], [n])
              for n in range(1, 10)]
    for exponents, caps in cases:
        for cap in caps:
            got = binomial_exp_product(exponents, cap)
            want = _ref_binomial_exp_product(exponents, cap)
            assert got.cap == want.cap == cap
            assert _exact_terms(got.expr) == _exact_terms(want.expr), (
                exponents, cap)
