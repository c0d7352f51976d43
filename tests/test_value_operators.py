"""How values combine in the library: each value class states its own
operators, so a sum or product of a symmetric function, a series, a
stable character and a number is either a well-formed value or an error,
never a symmetric function whose coefficients are characters, series or
floats."""

from fractions import Fraction

import pytest

from symcalc import alphabets
from symcalc.alphabets import TruncatedSeries, sigma_series
from symcalc.coeffs import EvalError, ParamPoly
from symcalc.stable import StableChar, angle, character_polynomial
from symcalc.symfunc import SymExpr, multiply, schur

from test_change_of_basis import _mixed_inputs, _same

SERIES = sigma_series("sigma", 1, 3)


@pytest.mark.parametrize("product", [
    lambda: schur([1]) * angle((1,)), lambda: angle((1,)) * schur([1]),
    lambda: SERIES * angle((1,)), lambda: angle((1,)) * SERIES])
def test_a_stable_character_scales_only_by_numbers(product):
    with pytest.raises(EvalError, match="only scale by numbers"):
        product()


def test_a_symmetric_function_times_a_series_is_a_series():
    got = schur([1]) * SERIES
    assert isinstance(got, TruncatedSeries) and got == SERIES * schur([1])


@pytest.mark.parametrize("value", [schur([1]), SERIES, angle((1,))])
def test_a_float_scales_nothing(value):
    for product in (lambda: value * 1.5, lambda: 1.5 * value):
        with pytest.raises(TypeError):
            product()


def test_a_series_times_a_symmetric_function_is_the_truncated_product():
    t = ParamPoly.var("t")
    for series in [sigma_series("sigma", 1, 2), sigma_series("lambda", -1, 4),
                   TruncatedSeries(schur([2, 1], t) + schur([]), 3)]:
        for f in _mixed_inputs():
            want = TruncatedSeries(multiply(series.expr, f), series.cap)
            for got in (series * f, f * series):
                _same(got, want)
                assert list(got.expr.terms) == list(want.expr.terms)


def test_a_series_passes_its_cap_to_multiply(monkeypatch):
    caps = []

    def spy(f, g, cap=None):
        caps.append(cap)
        return multiply(f, g, cap)

    monkeypatch.setattr(alphabets, "multiply", spy)
    f, series = schur([5, 4, 3]), sigma_series("sigma", 1, 2)
    assert series * f == f * series == TruncatedSeries(SymExpr("h"), 2)
    assert caps == [2, 2]


def test_a_series_subtracts_from_either_side():
    assert 1 - SERIES == -(SERIES - 1)
    assert schur([1]) - SERIES == -(SERIES - schur([1]))
    assert isinstance(schur([1]) - SERIES, TruncatedSeries)


def test_a_number_adds_to_a_stable_character_as_angle_empty():
    a = angle((1,))
    assert a + 1 == 1 + a == a + angle(())
    assert a - Fraction(1, 2) == -(Fraction(1, 2) - a)
    assert 2 * a * Fraction(3, 2) == a * 3 == StableChar(a.reduced * 3)
    assert (a - a).reduced == SymExpr("s")


@pytest.mark.parametrize("combine, message", [
    (lambda a, f: a + f, "cannot mix"), (lambda a, f: f + a, "cannot mix"),
    (lambda a, f: a - f, "cannot mix"), (lambda a, f: f - a, "cannot mix"),
    (lambda a, f: a * a, "use '#'")])
def test_a_stable_character_with_a_symmetric_function(combine, message):
    with pytest.raises(EvalError, match=message):
        combine(angle((1,)), schur([1]))


@pytest.mark.parametrize("other", [1, schur([1]), angle((1,)), SERIES])
def test_a_character_polynomial_takes_no_arithmetic(other):
    xi = character_polynomial((1,))
    for combine in (lambda: xi + other, lambda: other + xi,
                    lambda: xi - other, lambda: other - xi,
                    lambda: xi * other, lambda: other * xi, lambda: -xi):
        with pytest.raises(EvalError, match="take no '\\+', '-' or '\\*'"):
            combine()
