"""Rendering of results as plain text, JSON payloads, or LaTeX.

Every signed sum symcalc prints, from SymExpr, StableChar and
CharPolynomial here to the rows of ``tables``, is one call of
``render_terms``: a coefficient dict, a name for each partition, a
term order from ``term_sort_key`` and the separator between a
coefficient and the name.  ``coeffs.join_terms`` joins the term texts;
``coeffs.format_coeff`` uses it for the monomials of a ParamPoly.
"""

from __future__ import annotations

from .coeffs import (NUMBERS, ParamPoly, coeff_to_json, format_coeff,
                     join_terms)
from .partitions import multiplicities
from .symfunc import SymExpr


def term_sort_key(order: str):
    """Key functions for the term orders used in output.

    desc: degree descending, reverse-lex descending inside a degree;
    asc: degree ascending, lex ascending inside a degree;
    lex: plain lexicographic on part tuples.
    """
    if order == "desc":
        return lambda lam: (-sum(lam), tuple(-x for x in lam))
    if order == "asc":
        return lambda lam: (sum(lam), lam)
    if order == "lex":
        return lambda lam: lam
    raise ValueError(f"unknown term order {order!r}")


def _json(obj) -> str:
    import json
    return json.dumps(obj, sort_keys=True)


def _term(c, name: str, sep: str, latex: bool) -> str:
    """c*name, with the sign leading; an empty name is the unit."""
    if isinstance(c, ParamPoly) and c.is_constant():
        c = c.constant_value()
    if isinstance(c, ParamPoly):
        sign, mult = "", f"({format_coeff(c, latex=latex)})"
    else:
        sign, c = ("-", -c) if c < 0 else ("", c)
        if c == 1:
            mult = ""
        elif latex and c.denominator != 1:
            mult = f"\\frac{{{c.numerator}}}{{{c.denominator}}}"
        else:
            mult = str(c)
    if not name:
        return sign + (mult or "1")
    return sign + (f"{mult}{sep}{name}" if mult else name)


def render_terms(terms: dict, name, order: str, sep: str,
                 latex: bool = False) -> str:
    """The signed sum of c*name(lam) over terms {lam: c}.

    Terms go in term_sort_key(order); sep stands between a coefficient
    other than +-1 and the name.  Coefficients are ints, Fractions or
    ParamPolys; a non-constant ParamPoly prints in parentheses.
    """
    key = term_sort_key(order)
    return join_terms(_term(terms[lam], name(lam), sep, latex)
                      for lam in sorted(terms, key=key))


def render_symexpr(f: SymExpr, fmt: str = "text") -> str:
    if fmt == "json":
        return _json(f.to_json())
    latex = fmt == "latex"

    def name(lam):
        if latex:
            return f"{f.basis}_{{{''.join(map(str, lam)) or 0}}}"
        return f"{f.basis}[{','.join(map(str, lam))}]"
    return render_terms(f.terms, name, "desc", "" if latex else "*", latex)


def render_stable(sc: StableChar, fmt: str = "text") -> str:
    from .stable import to_angle_basis
    coeffs = to_angle_basis(sc)
    if fmt == "json":   # the terms of <nu> are written as those of s_nu
        return _json({**sc.to_json(),
                      "angle_terms": SymExpr("s", coeffs).to_json()["terms"]})
    latex = fmt == "latex"

    def name(lam):
        if latex:
            return f"\\langle {''.join(map(str, lam)) or 0}\\rangle"
        return f"A[{','.join(map(str, lam))}]"
    return render_terms(coeffs, name, "desc", "" if latex else "*", latex)


def render_charpoly(cp: CharPolynomial, fmt: str = "text") -> str:
    if fmt == "json":
        return _json(cp.to_json())
    latex = fmt == "latex"

    def name(nu):
        mults = multiplicities(nu)
        if latex:
            return "\\,".join(f"\\binom{{m_{{{i}}}}}{{{mults[i]}}}"
                              for i in sorted(mults, reverse=True))
        return "*".join(f"C(m{i},{mults[i]})"
                        for i in sorted(mults, reverse=True))
    return render_terms(cp.terms, name, "asc", "" if latex else "*", latex)


def render_value(value, fmt: str = "text") -> str:
    if isinstance(value, SymExpr):
        return render_symexpr(value, fmt)
    if not isinstance(value, NUMBERS):
        # only symcalc.stable makes such values, so it is loaded already
        from .stable import CharPolynomial, StableChar
        if isinstance(value, StableChar):
            return render_stable(value, fmt)
        if isinstance(value, CharPolynomial):
            return render_charpoly(value, fmt)
    if fmt == "json":
        return _json({"scalar": coeff_to_json(value)})
    return format_coeff(value, latex=(fmt == "latex"))
