from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symcalc.coeffs import (ParamPoly, _align, as_fraction, coeff_to_json,
                            format_coeff)
from oracles import coeff_from_json
from test_braid_lehrer_solomon import binomial_series_coeff

fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


def poly_of(d: dict) -> ParamPoly:
    p = ParamPoly.const(0, params=("t1", "t2"))
    for (a, b), c in d.items():
        p = p + ParamPoly.const(c, params=("t1", "t2")) * \
            ParamPoly.var("t1") ** a * ParamPoly.var("t2") ** b
    return p


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    fractions, max_size=4).map(poly_of)


@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)


@given(small_polys, st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]))
def test_frobenius_is_ring_morphism(a, k, j):
    b = poly_of({(1, 0): Fraction(2), (0, 2): Fraction(-1)})
    assert (a * b).frobenius(k) == a.frobenius(k) * b.frobenius(k)
    assert (a + b).frobenius(k) == a.frobenius(k) + b.frobenius(k)
    assert a.frobenius(k).frobenius(j) == a.frobenius(k * j)


@given(small_polys, fractions, fractions)
def test_subs_is_evaluation(a, x, y):
    b = poly_of({(2, 0): Fraction(1), (0, 1): Fraction(3)})
    vals = {"t1": x, "t2": y}
    assert (a * b).subs(vals) == a.subs(vals) * b.subs(vals)


def test_constant_detection():
    p = ParamPoly.const(Fraction(3, 2), params=("q",))
    assert p.is_constant()
    assert p.constant_value() == Fraction(3, 2)
    assert not (p * ParamPoly.var("q")).is_constant()
    with pytest.raises(ValueError):
        as_fraction(p * ParamPoly.var("q"))


def test_binomial_series_coeff():
    # coefficient of x^k in (1+x)^a for rational a
    assert binomial_series_coeff(Fraction(5), 2) == 10
    assert binomial_series_coeff(Fraction(-1), 3) == -1
    assert binomial_series_coeff(Fraction(1, 2), 2) == Fraction(-1, 8)


def test_truncation_cap_drops_high_terms():
    q = ParamPoly.var("q", cap=3)
    assert (q * q * q * q).terms == {}
    assert (q * q * q).terms != {}


@given(small_polys)
def test_json_roundtrip(a):
    assert coeff_from_json(coeff_to_json(a)) == a
    assert coeff_from_json(coeff_to_json(Fraction(-7, 3))) == Fraction(-7, 3)


def test_format():
    p = poly_of({(1, 1): Fraction(3), (0, 0): Fraction(1)})
    assert format_coeff(p) == "3*t1*t2 + 1"
    assert format_coeff(Fraction(-1, 2)) == "-1/2"


@given(small_polys, small_polys, st.integers(min_value=-3, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_arithmetic_results_are_normal_forms(a, b, n, k):
    # results built without re-validation equal what the checking
    # constructor makes of the same data, caps included
    capped = ParamPoly(a.params, a.terms, {"t1": 3})
    results = [a + b, -a, a * b, a * n, a * Fraction(n, 2), capped * capped,
               capped + a, -capped]
    if all(e[0] * k <= 3 for e in capped.terms):
        results.append(capped.frobenius(k))
    for r in results:
        again = ParamPoly(r.params, r.terms, r.caps)
        assert (r.params, r.terms, r.caps) == (again.params, again.terms,
                                                again.caps)
        assert all(type(c) is Fraction and c for c in r.terms.values())


# -- equality, hash and the one alignment ---------------------------------


@given(small_polys, st.sampled_from(["q", "t0", "t3"]).flatmap(
    lambda extra: st.permutations(["t1", "t2", extra])))
def test_eq_and_hash_go_by_parameter_name(a, params):
    # the same polynomial on permuted params with one unused param added
    b = ParamPoly(params, {tuple(dict(zip(a.params, e)).get(p, 0)
                                 for p in params): c
                           for e, c in a.terms.items()})
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert a + 1 != b and hash(a + 1) == hash(b + 1)


def _former_align_full_caps(a, b):
    caps = dict(b.caps)
    for name, cap in a.caps.items():
        if name in caps and caps[name] is not None and cap is not None:
            caps[name] = min(caps[name], cap)
        else:
            caps[name] = cap
    return caps


def test_align_merges_caps_by_the_smaller_cap():
    polys = [ParamPoly(("q", "t1"), {(1, 1): 1}, {"q": 3, "t1": 2}),
             ParamPoly(("q",), {(2,): 1}, {"q": 5}),
             ParamPoly(("q", "t1"), {(0, 1): 1}, {"q": None, "t1": 1}),
             ParamPoly(("t1",), {(1,): 3}, {"t1": None}),
             ParamPoly(("t2",), {(1,): 1}, {"t2": 4}),
             ParamPoly(("q",), {(1,): 2})]
    for a in polys:
        for b in polys:
            assert _align(a, b)[2] == _former_align_full_caps(a, b), (a, b)


def test_eq_and_hash_build_no_parampoly(monkeypatch):
    a = ParamPoly(("t1", "q"), {(1, 0): 2, (0, 1): 1, (1, 1): 1})
    b = ParamPoly(("q", "t1", "t2"), {(1, 0, 0): 1, (0, 1, 0): 2,
                                      (1, 1, 0): 1})
    c, two = a * 2, ParamPoly.const(2, ("q",), {"q": 1})

    def refuse(*args, **kwargs):
        raise AssertionError("ParamPoly built")

    monkeypatch.setattr(ParamPoly, "__init__", refuse)
    assert a == b and b == a and a != c and c != b
    assert hash(a) == hash(b) and len({a, b, c}) == 2
    assert two == 2 and hash(two) == hash(2)


@pytest.mark.parametrize("c", [2, 0, -3, Fraction(3, 4), Fraction(-5, 2)])
def test_a_constant_hashes_as_its_number(c):
    for p in [ParamPoly.const(c), ParamPoly.const(c, ("q",)),
              ParamPoly.const(c, ("q", "t1"), {"q": 2, "t1": None}),
              ParamPoly.const(c, ("t1",), {"t1": 0})]:
        for number in (c, Fraction(c)):
            assert p == number and hash(p) == hash(number)
            assert number in {p} and p in {number}
