"""Pure braid cohomology as the Lehrer-Solomon sum, against the generating
function it replaced and against two independent facts about H^*(P_n).

``braid_poincare`` sums omega prod_j e_{m_j}[Lie_j] over lam |- n with
len(lam) = n - i (Lehrer-Solomon).  The earlier code read the same
characters off prod_k (1 + p_k)^{ell_k(t)}, with the binomial-element
exponents ell_k(t) = (1/k) sum_{d | k} mu(d) t^{k/d} in a marker
parameter t.  That route, with its helpers ``_necklace_poly``,
``binomial_exp_product`` and ``binomial_series_coeff``, is kept here as
the reference; ``test_alphabets`` and ``test_coeffs`` check the helpers.
"""

import hashlib
from fractions import Fraction
from math import factorial, prod

import pytest

from symcalc.alphabets import TruncatedSeries, _mobius
from symcalc.apps import braid_poincare, stable_cohomology
from symcalc.coeffs import ParamPoly
from symcalc.partitions import multiplicities, partitions_up_to
from symcalc.render import render_symexpr
from symcalc.symfunc import (SymExpr, convert, hall_scalar, homog, power,
                             schur)
from oracles import homogeneous_component
from test_plethysm_adjoint import _ref_stable_cohomology, _same


# -- the generating-function route, as the reference ----------------------


def binomial_series_coeff(a, k: int):
    """a(a-1)...(a-k+1)/k!: coefficient of u^k in (1+u)^a.

    ``a`` is treated as a binomial element, so this works for ParamPoly
    exponents like t or (t^2-t)/2.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if isinstance(a, int):
        a = Fraction(a)
    result = Fraction(1)
    for i in range(k):
        result = result * (a - i)
    return result * Fraction(1, factorial(k))


def binomial_exp_product(exponents, cap: int) -> TruncatedSeries:
    """prod_{i>=1} (1+p_i)^{a_i} with binomial-element exponents a_i.

    ``exponents[i-1]`` is the exponent of (1+p_i); the X-degree is
    truncated at ``cap``.  The coefficient of p_nu is
    prod_i C(a_i, m_i(nu)), one binomial per cycle length i of nu.
    """
    a = list(exponents)
    return TruncatedSeries(SymExpr("p", {
        nu: prod(binomial_series_coeff(a[i - 1], m)
                 for i, m in multiplicities(nu).items())
        for nu in partitions_up_to(cap) if not nu or nu[0] <= len(a)}), cap)


def _necklace_poly(i: int, cap: int) -> ParamPoly:
    """ell_i(t) = (1/i) sum_{d | i} mu(d) t^{i/d} in the parameter t."""
    terms = {}
    for d in range(1, i + 1):
        if i % d == 0:
            m = _mobius(d)
            if m:
                terms[(i // d,)] = terms.get((i // d,), 0) + Fraction(m, i)
    return ParamPoly(("t",), {e: c for e, c in terms.items() if c},
                     {"t": cap})


def _ref_braid_poincare(n: int) -> list:
    """The generating identity sum_i (-t)^i ch H^{n-i} = degree-n part of
    prod_{k>=1} (1+p_k)^{ell_k(t)}, re-indexed so that entry i is H^i."""
    exponents = [_necklace_poly(i, n) for i in range(1, n + 1)]
    series = homogeneous_component(binomial_exp_product(exponents, n).expr, n)
    series = convert(series, "s")
    out = [SymExpr("s") for _ in range(n)]
    for lam, c in series.terms.items():
        if not isinstance(c, ParamPoly):
            c = ParamPoly.const(c, ("t",))
        for exps, v in c.terms.items():
            j = exps[0] if exps else 0
            i = n - j
            if 0 <= i < n:
                out[i] = out[i] + schur(lam) * (v * Fraction(-1) ** i)
    return out


def _cli_text(chs, fmt):
    """The stdout of ``symcalc braid`` for these characters."""
    return "".join(f"H^{i}: {render_symexpr(ch, fmt)}\n"
                   for i, ch in enumerate(chs))


# -- the Lehrer-Solomon sum against the reference --------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_braid_matches_generating_function(n):
    got, ref = braid_poincare(n), _ref_braid_poincare(n)
    assert len(got) == len(ref) == n
    for a, b in zip(got, ref):
        _same(a, b)
    for fmt in ("text", "json", "latex"):
        assert _cli_text(got, fmt) == _cli_text(ref, fmt), fmt


def test_braid_text_digest_matches_at_14():
    got, ref = (hashlib.sha256(_cli_text(chs, "text").encode()).hexdigest()
                for chs in (braid_poincare(14), _ref_braid_poincare(14)))
    assert got == ref


def test_stable_cohomology_6_matches_sign_loop():
    _same(stable_cohomology(6), _ref_stable_cohomology(6))


# -- independent oracles ----------------------------------------------------


def test_total_cohomology_is_lehrer():
    # Lehrer: sum_i ch H^i(P_n) = 2 h_2 p_1^(n-2), the character of S_n
    # induced from the trivial one of the order-2 group <(12)>, times 2
    for n in range(2, 13):
        total = sum(braid_poincare(n), SymExpr("s"))
        assert total == homog([2]) * power((1,) * (n - 2)) * 2, n
        assert hall_scalar(total, power((1,) * n)) == factorial(n)
