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
within a degree.  One layout, ``_LAYOUT``, drives all six sections: per
section, the ``stable.transition`` matrix (c, t or a), whether a line reads
a row or a column of it, the line format, the term name and the term order
(descending degree, ascending degree, or lexicographic; see
``render.term_sort_key``).  Every line is printed by ``render.render_terms``,
with a space between a coefficient and its name (2 h11).
"""

from __future__ import annotations

from .partitions import canonical_key, partitions_up_to
from .render import render_terms
from .stable import transition


def _pname(lam) -> str:
    return "".join(str(p) for p in lam) if lam else "0"


# section: (transition kind, by column, line format, term name, term order)
_LAYOUT = {
    "inner-plethysm": ("c", False, "[h{}] = <<{}>>", "h", "desc"),
    "perm-chars": ("t", False, "<<h{}>> = [{}]", "h", "desc"),
    "tilde-s-dual": ("a", True, "ts{}* = {}", "s", "asc"),
    "schur-on-tilde-s": ("a", False, "s{} = {}", "ts", "lex"),
    "tilde-h-dual": ("c", True, "th{}* = {}", "m", "asc"),
    "h-on-tilde-h": ("c", False, "h{} = {}", "th", "lex"),
}
SECTIONS = tuple(_LAYOUT)


def render_table(section: str, max_degree: int) -> str:
    if section not in SECTIONS:
        raise ValueError(f"unknown section {section!r}; choose from "
                         + ", ".join(SECTIONS))
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    kind, by_column, line, symbol, order = _LAYOUT[section]
    rows: dict = {}
    for (lam, mu), c in transition(kind, max_degree).items():
        if by_column:
            lam, mu = mu, lam
        rows.setdefault(lam, {})[mu] = c
    # a column has entries at its own degree and above, so the dual
    # sections stop one degree below max_degree
    names = sorted(filter(None, partitions_up_to(max_degree - by_column)),
                   key=canonical_key)
    return "\n".join(line.format(_pname(lam), render_terms(
        rows.get(lam, {}), lambda mu: symbol + _pname(mu), order, " "))
        for lam in names) + "\n"
