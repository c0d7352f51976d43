"""Rendering of results as plain text, JSON payloads, or LaTeX."""

from __future__ import annotations

from fractions import Fraction

from .coeffs import ParamPoly, format_coeff
from .partitions import canonical_key, multiplicities
from .stable import CharPolynomial, StableChar, to_angle_basis
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


def _coeff_prefix(c, latex=False):
    """(sign, multiplier-text) for a coefficient; empty text means 1."""
    if isinstance(c, ParamPoly):
        if c.is_constant():
            c = c.constant_value()
    if isinstance(c, ParamPoly):
        return 1, f"({format_coeff(c, latex=latex)})"
    if c < 0:
        sign, c = -1, -c
    else:
        sign = 1
    if c == 1:
        return sign, ""
    if latex:
        return sign, (str(c) if c.denominator == 1
                      else f"\\frac{{{c.numerator}}}{{{c.denominator}}}")
    return sign, str(c)


def _join_terms(bits):
    """Assemble [(sign, text)] into a signed sum."""
    if not bits:
        return "0"
    out = []
    for i, (sign, text) in enumerate(bits):
        if i == 0:
            out.append(("-" if sign < 0 else "") + text)
        else:
            out.append(("- " if sign < 0 else "+ ") + text)
    return " ".join(out)


def render_symexpr(f: SymExpr, fmt: str = "text", order: str = "desc") -> str:
    if fmt == "json":
        import json
        return json.dumps(f.to_json(), sort_keys=True)
    key = term_sort_key(order)
    bits = []
    for lam in sorted(f.terms, key=key):
        c = f.terms[lam]
        if fmt == "latex":
            name = f"{f.basis}_{{{''.join(map(str, lam))}}}" if lam \
                else f"{f.basis}_{{0}}"
            sign, mult = _coeff_prefix(c, latex=True)
            bits.append((sign, f"{mult}{name}" if mult else name))
        else:
            name = f"{f.basis}[{','.join(map(str, lam))}]"
            sign, mult = _coeff_prefix(c)
            bits.append((sign, f"{mult}*{name}" if mult else name))
    return _join_terms(bits)


def render_stable(sc: StableChar, fmt: str = "text") -> str:
    coeffs = to_angle_basis(sc)
    if fmt == "json":
        import json
        items = sorted(coeffs.items(), key=lambda kv: canonical_key(kv[0]))
        from .coeffs import coeff_to_json
        return json.dumps({"reduced": sc.reduced.to_json(),
                           "angle_terms": [{"part": list(lam),
                                            "coeff": coeff_to_json(c)}
                                           for lam, c in items]},
                          sort_keys=True)
    key = term_sort_key("desc")
    bits = []
    for lam in sorted(coeffs, key=key):
        c = coeffs[lam]
        if fmt == "latex":
            name = f"\\langle {''.join(map(str, lam)) or '0'}\\rangle"
            sign, mult = _coeff_prefix(c, latex=True)
        else:
            name = f"A[{','.join(map(str, lam))}]"
            sign, mult = _coeff_prefix(c)
        bits.append((sign, f"{mult}{'*' if fmt != 'latex' and mult else ''}{name}"
                     if mult else name))
    return _join_terms(bits)


def render_charpoly(cp: CharPolynomial, fmt: str = "text") -> str:
    if fmt == "json":
        import json
        return json.dumps(cp.to_json(), sort_keys=True)
    key = term_sort_key("asc")
    bits = []
    for nu in sorted(cp.terms, key=key):
        c = Fraction(cp.terms[nu])
        sign, mult = _coeff_prefix(c)
        if not nu:
            bits.append((sign, mult or "1"))
            continue
        factors = []
        for i in sorted(multiplicities(nu), reverse=True):
            n_i = multiplicities(nu)[i]
            if fmt == "latex":
                factors.append(f"\\binom{{m_{{{i}}}}}{{{n_i}}}")
            else:
                factors.append(f"C(m{i},{n_i})")
        body = ("\\," if fmt == "latex" else "*").join(factors)
        bits.append((sign, f"{mult}{'*' if mult else ''}{body}"
                     if fmt != "latex" else f"{mult}{body}"))
    return _join_terms(bits)


def render_value(value, fmt: str = "text", order: str = "desc") -> str:
    if isinstance(value, SymExpr):
        return render_symexpr(value, fmt, order)
    if isinstance(value, StableChar):
        return render_stable(value, fmt)
    if isinstance(value, CharPolynomial):
        return render_charpoly(value, fmt)
    if fmt == "json":
        import json
        from .coeffs import coeff_to_json
        return json.dumps({"scalar": coeff_to_json(value)}, sort_keys=True)
    return format_coeff(value, latex=(fmt == "latex"))
