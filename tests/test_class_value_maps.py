"""The stable layer on class values, against the routes it replaced.

T and T^-1 are read off their class values <f, p_rho[M]> and
<f, p_rho[sigma_1 - 1]>, M is summed in closed form, the stable
Kronecker product multiplies character polynomials, and the six tables
come from one layout.  The ``_old_*`` functions below are the earlier
code, kept as references: the per-mu plethysms m_mu[S] cut to one
degree, the degree-by-degree inversion of sigma_1 - 1, the loop over
Foulkes derivatives and the hand-written table branches.  The H table is
also checked against a count that shares no code with either route.
"""

import json
import os
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from symcalc import cache
from symcalc.alphabets import (TruncatedSeries, invert_sigma, outer_plethysm,
                               sigma_minus_one)
from symcalc.apps import stable_cohomology, stable_weight_orbits
from symcalc.partitions import (canonical_key, partitions_of,
                                partitions_up_to, z_value)
from symcalc.render import render_terms
from symcalc.stable import (StableChar, _pkey, _pleth_columns, angle, dangle,
                            stable_kron, tilde_h, tilde_h_expand, transition)
from symcalc.symfunc import (SymExpr, foulkes_derivative, hall_scalar, homog,
                             mono, multiply, power, schur)
from symcalc.tables import SECTIONS, render_table
from oracles import homogeneous_component
from test_cli import run_cli


# -- the replaced routes -------------------------------------------------


def _old_invert_sigma(cap):
    s = sigma_minus_one(cap)
    m = TruncatedSeries(power([1]), cap)
    for d in range(2, cap + 1):
        err = outer_plethysm(s.expr, m).expr - power([1])
        m = TruncatedSeries(m.expr - homogeneous_component(err, d), cap)
    return m


def _old_pleth_rows(series, d):
    s = {"H": sigma_minus_one, "M": _old_invert_sigma}[series](max(d, 1))
    rows = {lam: {} for lam in partitions_of(d)}
    for mu in partitions_up_to(d):
        col = homogeneous_component(outer_plethysm(mono(mu), s).expr, d)
        for lam, c in col.terms.items():
            rows[lam][mu] = c
    return rows


def _encode(rows):
    return {_pkey(lam): {_pkey(mu): str(c) for mu, c in row.items()}
            for lam, row in rows.items()}


def _old_stable_kron(a, b):
    fa, fb = a.reduced, b.reduced
    cap = min(fa.degree(), fb.degree())
    total = SymExpr(fa.basis)
    for alpha in partitions_up_to(cap):
        da = foulkes_derivative(power(alpha), fa)
        if not da.terms:
            continue
        db = foulkes_derivative(power(alpha), fb)
        if not db.terms:
            continue
        piece = multiply(multiply(da, db), power(alpha))
        total = total + piece * Fraction(1, z_value(alpha))
    return StableChar(total)


def _name(lam):
    return "".join(str(p) for p in lam) if lam else "0"


def _fmt(terms, symbol, order):
    return render_terms(terms, lambda lam: symbol + _name(lam), order, " ")


def _rows(max_degree):
    return sorted((lam for lam in partitions_up_to(max_degree) if lam),
                  key=canonical_key)


def _old_render_table(section, max_degree):
    lines = []
    if section == "inner-plethysm":
        c = transition("c", max_degree)
        for lam in _rows(max_degree):
            terms = {mu: c[lam, mu] for mu in _rows(sum(lam))
                     if (lam, mu) in c}
            lines.append(f"[h{_name(lam)}] = <<{_fmt(terms, 'h', 'desc')}>>")
    elif section == "perm-chars":
        for lam in _rows(max_degree):
            terms = tilde_h(lam).in_basis("h").terms
            lines.append(f"<<h{_name(lam)}>> = [{_fmt(terms, 'h', 'desc')}]")
    elif section == "tilde-s-dual":
        a = transition("a", max_degree)
        for lam in _rows(max_degree - 1):
            terms = {mu: v for (mu, nu), v in a.items() if nu == lam}
            lines.append(f"ts{_name(lam)}* = {_fmt(terms, 's', 'asc')}")
    elif section == "schur-on-tilde-s":
        a = transition("a", max_degree)
        for lam in _rows(max_degree):
            terms = {mu: v for (nu, mu), v in a.items() if nu == lam}
            lines.append(f"s{_name(lam)} = {_fmt(terms, 'ts', 'lex')}")
    elif section == "tilde-h-dual":
        c = transition("c", max_degree)
        for lam in _rows(max_degree - 1):
            terms = {mu: v for (mu, nu), v in c.items() if nu == lam}
            lines.append(f"th{_name(lam)}* = {_fmt(terms, 'm', 'asc')}")
    else:  # h-on-tilde-h
        c = transition("c", max_degree)
        for lam in _rows(max_degree):
            terms = {mu: v for (nu, mu), v in c.items() if nu == lam}
            lines.append(f"h{_name(lam)} = {_fmt(terms, 'th', 'lex')}")
    return "\n".join(lines) + "\n"


# -- T and T^-1 ------------------------------------------------------------


def test_invert_sigma_closed_form_matches_the_iteration():
    for cap in range(1, 11):
        assert repr(invert_sigma(cap)) == repr(_old_invert_sigma(cap)), cap
    with pytest.raises(ValueError):
        invert_sigma(0)


def test_pleth_cache_files_match_the_per_mu_plethysms(tmp_path):
    saved = cache._active
    try:
        cache.set_cache_dir(tmp_path)
        _pleth_columns.cache_clear()
        for series in "HM":
            for d in range(8):
                _pleth_columns(series, d)
                path = os.path.join(tmp_path, f"pleth{series}-{d}.json")
                with open(path, encoding="utf-8") as fh:
                    payload = json.load(fh)["payload"]
                assert payload == _encode(_old_pleth_rows(series, d)), \
                    (series, d)
                assert cache._active.get(f"pleth{series}", str(d)) == payload
    finally:
        cache._active = saved
        _pleth_columns.cache_clear()


@lru_cache(maxsize=None)
def _vector_tuples(lam, rho):
    """Tuples (a_i), one nonzero a_i in N^len(lam) per part rho_i, with
    sum_i rho_i a_i = lam."""
    if not rho:
        return 0 if any(lam) else 1
    r = rho[0]
    return sum(_vector_tuples(tuple(x - r * y for x, y in zip(lam, a)),
                              rho[1:])
               for a in product(*(range(x // r + 1) for x in lam)) if any(a))


def test_inverse_tilde_map_counts_vector_tuples():
    # chi_{T^-1 h_lam}(rho) = <h_lam, p_rho[sigma_1 - 1]> = [x^lam] of
    # prod_i (prod_j (1 - x_j^rho_i)^-1 - 1)
    for lam in partitions_up_to(6):
        f = SymExpr("h", tilde_h_expand(homog(lam)))
        for rho in partitions_up_to(sum(lam) + 1):
            assert hall_scalar(f, power(rho)) == _vector_tuples(lam, rho), \
                (lam, rho)


# -- the stable Kronecker product -----------------------------------------


def _same_kron(a, b):
    got, want = stable_kron(a, b).reduced, _old_stable_kron(a, b).reduced
    assert got.basis == want.basis
    assert got.terms == want.terms
    assert {k: type(c) for k, c in got.terms.items()} == \
        {k: type(c) for k, c in want.terms.items()}


def test_stable_kron_matches_the_foulkes_loop_on_angles():
    chars = [make(lam) for make in (angle, dangle)
             for lam in partitions_up_to(4)]
    for a in chars:
        for b in chars:
            _same_kron(a, b)


def test_stable_kron_matches_the_foulkes_loop_on_rational_and_marked():
    rational = StableChar(homog([2, 1], Fraction(1, 3)) + schur([1]))
    marked = [stable_weight_orbits(homog([2])),
              stable_weight_orbits(homog([2, 1])), stable_cohomology(2)]
    partners = [rational, angle([1]), angle([2, 1]), dangle([2])]
    for a in [rational] + marked:
        for b in partners + marked:
            _same_kron(a, b)
            _same_kron(b, a)


# -- the tables ------------------------------------------------------------


@pytest.mark.parametrize("section", SECTIONS)
def test_table_layout_matches_the_section_branches(section):
    for d in range(1, 7):
        assert render_table(section, d) == _old_render_table(section, d)


@pytest.mark.parametrize("section", ["tilde-s-dual", "tilde-h-dual"])
def test_dual_sections_at_degree_one_print_one_newline(section):
    assert run_cli(["tables", "--section", section, "--max-degree", "1"]) \
        == (0, "\n", "")
