"""Exact coefficient arithmetic: rationals and parameter polynomials.

Rationals are ``fractions.Fraction`` (arbitrary precision, canonical form).
``ParamPoly`` is a polynomial in declared formal parameters (t, q, t0, t1,
...) with Fraction coefficients and optional per-parameter degree caps;
caps implement truncated series like 1/(1-q) without leaving the
polynomial ring.  Two ParamPolys meet in one place, ``_align``, on the
union of their params, so == and hash go by parameter name whatever the
declared params, and a constant hashes as its number.

Coefficients of symmetric-function expansions are either Fraction or
ParamPoly; both support +, -, * against each other and against ints.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache


class TruncationError(ArithmeticError):
    """A declared degree cap was exceeded where truncation is not sound."""


class EvalError(ValueError):
    """An operator or function of an expression got the wrong argument."""


_PARAM_RE = re.compile(r"^([a-zA-Z]+)(\d*)$")


def _param_key(name: str):
    m = _PARAM_RE.match(name)
    if not m:
        raise ValueError(f"bad parameter name: {name!r}")
    prefix, num = m.groups()
    return (prefix, int(num) if num else -1)


class ParamPoly:
    """Sparse polynomial in an ordered set of formal parameters."""

    __slots__ = ("params", "terms", "caps")

    def __init__(self, params, terms, caps=None):
        self.params = tuple(params)
        self.caps = dict(caps) if caps else {}
        clean = {}
        for exps, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.params):
                raise ValueError("exponent vector length mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if self._within_caps(exps):
                clean[exps] = clean.get(exps, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def _make(cls, params: tuple, terms: dict, caps: dict) -> "ParamPoly":
        """A ParamPoly from terms already in normal form (Fraction
        coefficients, int exponent tuples of the right length): only zero
        and over-cap terms are dropped."""
        p = object.__new__(cls)
        p.params, p.caps = params, caps
        p.terms = {e: c for e, c in terms.items()
                   if c and (not caps or p._within_caps(e))}
        return p

    def _within_caps(self, exps) -> bool:
        for name, e in zip(self.params, exps):
            cap = self.caps.get(name)
            if cap is not None and e > cap:
                return False
        return True

    # -- constructors ------------------------------------------------

    @classmethod
    def const(cls, c, params=(), caps=None) -> "ParamPoly":
        zero = (0,) * len(tuple(params))
        return cls(params, {zero: Fraction(c)}, caps)

    @classmethod
    def var(cls, name: str, cap=None) -> "ParamPoly":
        caps = {name: cap} if cap is not None else None
        return cls((name,), {(1,): Fraction(1)}, caps)

    # -- structure ---------------------------------------------------

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.terms.get((0,) * len(self.params), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, ParamPoly):
            return NotImplemented
        _, (ta, tb), _ = _align(self, other)
        return ta == tb

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(
            (frozenset((p, x) for p, x in zip(self.params, e) if x), c)
            for e, c in self.terms.items()))

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self)
        if other is NotImplemented:
            return NotImplemented
        params, (ta, tb), caps = _align(self, other)
        out = dict(ta)
        for e, c in tb.items():
            out[e] = out.get(e, Fraction(0)) + c
        return ParamPoly._make(params, out, caps)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._make(self.params,
                               {e: -c for e, c in self.terms.items()},
                               self.caps)

    def __sub__(self, other):
        o = _coerce(other, self)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other, self)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ParamPoly._make(self.params,
                                   {e: c * other for e, c in self.terms.items()},
                                   self.caps)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        params, (ta, tb), caps = _align(self, other)
        out: dict = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Fraction(0)) + ca * cb
        # _make drops over-cap terms (truncation semantics)
        return ParamPoly._make(params, out, caps)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = ParamPoly.const(1, self.params, self.caps)
        for _ in range(k):
            result = result * self
        return result

    def __repr__(self):
        return f"ParamPoly({format_coeff(self)})"

    # -- lambda-ring / series operations ------------------------------

    def frobenius(self, k: int) -> "ParamPoly":
        """Substitute every parameter v by v^k (parameters are letters)."""
        if k < 1:
            raise ValueError("k must be positive")
        out = {}
        for e, c in self.terms.items():
            ek = tuple(x * k for x in e)
            if not self._within_caps(ek) and any(e):
                raise TruncationError(
                    f"frobenius({k}) exceeds cap on {self.params}")
            out[ek] = c
        return ParamPoly._make(self.params, out, self.caps)

    def subs(self, values: dict):
        """Substitute numeric values for (some) parameters."""
        keep = [i for i, p in enumerate(self.params) if p not in values]
        out: dict = {}
        for e, c in self.terms.items():
            for i, p in enumerate(self.params):
                if p in values:
                    c = c * Fraction(values[p]) ** e[i]
            ek = tuple(e[i] for i in keep)
            out[ek] = out.get(ek, Fraction(0)) + c
        params = tuple(self.params[i] for i in keep)
        res = ParamPoly(params, out,
                        {p: self.caps[p] for p in params if p in self.caps})
        if not params:
            return res.constant_value()
        return res

    # -- serialization -----------------------------------------------

    def to_json(self):
        return [{"exps": {p: e for p, e in zip(self.params, exps) if e},
                 "coeff": fraction_to_json(c)}
                for exps, c in sorted(self.terms.items())]


Coeff = Fraction | ParamPoly   # a coefficient of an expansion
NUMBERS = (int, Fraction, ParamPoly)   # scale SymExpr, series, StableChar


def _coerce(x, like: ParamPoly):
    if isinstance(x, (int, Fraction)):
        return ParamPoly.const(x, like.params, like.caps)
    if isinstance(x, ParamPoly):
        return x
    return NotImplemented


@lru_cache(maxsize=None)
def _union(pa: tuple, pb: tuple) -> tuple:
    return tuple(sorted(set(pa) | set(pb), key=_param_key))


def _align(a: ParamPoly, b: ParamPoly):
    """(params, (terms of a, terms of b), caps) on the union of the params."""
    params = _union(a.params, b.params)

    def remap(p: ParamPoly):
        if p.params == params:   # read only: __add__ copies, __mul__ reads
            return p.terms
        idx = [p.params.index(q) if q in p.params else None for q in params]
        return {tuple(e[i] if i is not None else 0 for i in idx): c
                for e, c in p.terms.items()}

    caps = dict(b.caps)
    for name, cap in a.caps.items():
        if name in caps and caps[name] is not None and cap is not None:
            caps[name] = min(caps[name], cap)
        else:
            caps[name] = cap
    return params, (remap(a), remap(b)), caps


# -- generic coefficient helpers --------------------------------------


def coeff_frobenius(c: Coeff, k: int) -> Coeff:
    """Raise parameter letters to the k-th power; rationals are fixed."""
    if isinstance(c, ParamPoly):
        return c.frobenius(k)
    return c


def as_fraction(c: Coeff) -> Fraction:
    if isinstance(c, ParamPoly):
        return c.constant_value()
    return Fraction(c)


# -- JSON helpers ------------------------------------------------------


def fraction_to_json(c: Fraction) -> dict:
    return {"num": str(c.numerator), "den": str(c.denominator)}


def coeff_to_json(c: Coeff):
    if isinstance(c, ParamPoly):
        return {"poly": c.to_json()}
    return fraction_to_json(Fraction(c))


# -- rendering ---------------------------------------------------------


def _monomial_str(params, exps, latex=False) -> str:
    factors = []
    for p, e in zip(params, exps):
        if e == 0:
            continue
        if latex:
            name = f"{p[0]}_{{{p[1:]}}}" if len(p) > 1 else p
            factors.append(name if e == 1 else f"{name}^{{{e}}}")
        else:
            factors.append(p if e == 1 else f"{p}^{e}")
    joiner = " " if latex else "*"
    return joiner.join(factors)


def join_terms(texts) -> str:
    """Join term texts into a signed sum; a leading '-' is the term's sign."""
    out = ""
    for text in texts:
        if out:
            out += f" - {text[1:]}" if text.startswith("-") else f" + {text}"
        else:
            out = text
    return out or "0"


def format_coeff(c: Coeff, latex=False) -> str:
    if not isinstance(c, ParamPoly):
        return str(c)
    pieces = []
    for exps in sorted(c.terms, key=lambda e: tuple(-x for x in e)):
        coef = c.terms[exps]
        mono = _monomial_str(c.params, exps, latex)
        if not mono:
            txt = str(coef)
        elif coef == 1:
            txt = mono
        elif coef == -1:
            txt = "-" + mono
        else:
            sep = " " if latex else "*"
            ctxt = str(coef) if coef.denominator == 1 else f"({coef})"
            txt = f"{ctxt}{sep}{mono}"
        pieces.append(txt)
    return join_terms(pieces)
