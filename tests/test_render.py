"""Literal output of every rendering path: signs, units, separators."""

from fractions import Fraction

import pytest

from symcalc.coeffs import ParamPoly, format_coeff
from symcalc.render import render_value
from symcalc.stable import CharPolynomial, angle, character_polynomial, dangle
from symcalc.symfunc import SymExpr
from symcalc.tables import render_table

t = ParamPoly.var("t")

CASES = [
    # a ParamPoly coefficient prints its negative fractional monomial inside
    # its parentheses; scalar term coefficients are \frac in LaTeX
    (SymExpr("s", {(2, 1): Fraction(-1, 2), (): Fraction(3),
                   (3,): Fraction(-1, 2) * t + 1}),
     "((-1/2)*t + 1)*s[3] - 1/2*s[2,1] + 3*s[]",
     r"((-1/2) t + 1)s_{3} - \frac{1}{2}s_{21} + 3s_{0}"),
    (SymExpr("h", {(1,): Fraction(-1), (2,): -t,
                   (1, 1): ParamPoly.const(-4, ("t",))}),
     "(-t)*h[2] - 4*h[1,1] - h[1]",
     r"(-t)h_{2} - 4h_{11} - h_{1}"),
    (SymExpr("p", {}), "0", "0"),
    (angle((2,)) * Fraction(-2, 3) + dangle((1, 1)),
     "1/3*A[2] + A[1,1] + 2*A[1] + A[]",
     r"\frac{1}{3}\langle 2\rangle + \langle 11\rangle + 2\langle 1\rangle"
     r" + \langle 0\rangle"),
    (-angle(()), "-A[]", r"-\langle 0\rangle"),
    (character_polynomial((3,)),
     "-C(m1,2) - C(m2,1) + C(m1,3) + C(m2,1)*C(m1,1) + C(m3,1)",
     r"-\binom{m_{1}}{2} - \binom{m_{2}}{1} + \binom{m_{1}}{3}"
     r" + \binom{m_{2}}{1}\,\binom{m_{1}}{1} + \binom{m_{3}}{1}"),
    # the constant term: the coefficient stands alone, +-1 prints 1
    (character_polynomial((1,)), "-1 + C(m1,1)", r"-1 + \binom{m_{1}}{1}"),
    (character_polynomial((1, 1)), "1 - C(m1,1) + C(m1,2) - C(m2,1)",
     r"1 - \binom{m_{1}}{1} + \binom{m_{1}}{2} - \binom{m_{2}}{1}"),
    (CharPolynomial({(): 5, (3,): 2, (2, 2, 1): -1}),
     "5 + 2*C(m3,1) - C(m2,2)*C(m1,1)",
     r"5 + 2\binom{m_{3}}{1} - \binom{m_{2}}{2}\,\binom{m_{1}}{1}"),
    (CharPolynomial({}), "0", "0"),
    # scalars are never \frac
    (Fraction(-1, 2) * t - 3, "(-1/2)*t - 3", "(-1/2) t - 3"),
    (Fraction(-1, 2), "-1/2", "-1/2"),
    (ParamPoly.const(0, ("t",)), "0", "0"),
]


@pytest.mark.parametrize("value, text, latex", CASES)
def test_render_value_text_and_latex(value, text, latex):
    assert render_value(value, "text") == text
    assert render_value(value, "latex") == latex


def test_format_coeff_keeps_the_sign_inside_a_fractional_monomial():
    c = Fraction(-1, 2) * t - 3
    assert format_coeff(c) == "(-1/2)*t - 3"
    assert format_coeff(c, latex=True) == "(-1/2) t - 3"
    assert format_coeff(-2 * t * t + t - 1) == "-2*t^2 + t - 1"
    assert format_coeff(ParamPoly.var("t1") * Fraction(3, 2),
                        latex=True) == "(3/2) t_{1}"


def test_table_row_with_a_non_unit_coefficient():
    lines = render_table("perm-chars", 3).splitlines()
    assert lines[4] == "<<h21>> = [h21 - 2 h11 + h1]"
    assert lines[5] == "<<h111>> = [h111 - 3 h11 + 2 h1]"
