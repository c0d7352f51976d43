"""Rendered tables for the tilde bases and their duals.

Six sections, each a text table with one line per partition row:

    inner-plethysm    [h_lam] = <<... h_mu ...>>   (stable inner plethysms of
                      complete homogeneous functions in permutation characters)
    perm-chars        <<h_lam>> = [... h_mu ...]   (the inverse expansion)
    tilde-s-dual      ts_lam* in the Schur basis
    schur-on-tilde-s  s_lam on the tilde-Schur basis
    tilde-h-dual      th_lam* in the monomial basis
    h-on-tilde-h      h_lam on the tilde-homogeneous basis

Partitions are printed with concatenated parts (h21 for h_{2,1}); the empty
partition prints as 0 (ts0).  Row order is by degree, reverse lexicographic
within a degree.  Term order varies by section to match the conventional
presentation: descending degree for the first two sections, ascending degree
with lexicographic tie-break for the dual sections, plain lexicographic for
the remaining two.  Every row is printed by ``render.render_terms``, with a
space between a coefficient and its name (2 h11).
"""

from __future__ import annotations

from .partitions import canonical_key, partitions_up_to
from .render import render_terms
from .stable import tilde_h, transition

SECTIONS = ("inner-plethysm", "perm-chars", "tilde-s-dual",
            "schur-on-tilde-s", "tilde-h-dual", "h-on-tilde-h")


def _pname(lam) -> str:
    return "".join(str(p) for p in lam) if lam else "0"


def _fmt_terms(terms: dict, symbol: str, order: str) -> str:
    return render_terms(terms, lambda lam: symbol + _pname(lam), order, " ")


def _rows(max_degree: int):
    out = [lam for lam in partitions_up_to(max_degree) if lam]
    out.sort(key=canonical_key)
    return out


def render_table(section: str, max_degree: int) -> str:
    if section not in SECTIONS:
        raise ValueError(f"unknown section {section!r}; choose from "
                         + ", ".join(SECTIONS))
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    lines = []
    if section == "inner-plethysm":
        c = transition("c", max_degree)
        for lam in _rows(max_degree):
            terms = {mu: c[lam, mu] for mu in _rows(sum(lam))
                     if (lam, mu) in c}
            lines.append(f"[h{_pname(lam)}] = "
                         f"<<{_fmt_terms(terms, 'h', 'desc')}>>")
    elif section == "perm-chars":
        for lam in _rows(max_degree):
            terms = tilde_h(lam).in_basis("h").terms
            lines.append(f"<<h{_pname(lam)}>> = "
                         f"[{_fmt_terms(terms, 'h', 'desc')}]")
    elif section == "tilde-s-dual":
        a = transition("a", max_degree)
        for lam in _rows(max_degree - 1):
            terms = {mu: v for (mu, nu), v in a.items() if nu == lam}
            lines.append(f"ts{_pname(lam)}* = "
                         f"{_fmt_terms(terms, 's', 'asc')}")
    elif section == "schur-on-tilde-s":
        a = transition("a", max_degree)
        for lam in _rows(max_degree):
            terms = {mu: v for (nu, mu), v in a.items() if nu == lam}
            lines.append(f"s{_pname(lam)} = "
                         f"{_fmt_terms(terms, 'ts', 'lex')}")
    elif section == "tilde-h-dual":
        c = transition("c", max_degree)
        for lam in _rows(max_degree - 1):
            terms = {mu: v for (mu, nu), v in c.items() if nu == lam}
            lines.append(f"th{_pname(lam)}* = "
                         f"{_fmt_terms(terms, 'm', 'asc')}")
    else:  # h-on-tilde-h
        c = transition("c", max_degree)
        for lam in _rows(max_degree):
            terms = {mu: v for (nu, mu), v in c.items() if nu == lam}
            lines.append(f"h{_pname(lam)} = "
                         f"{_fmt_terms(terms, 'th', 'lex')}")
    return "\n".join(lines) + "\n"
