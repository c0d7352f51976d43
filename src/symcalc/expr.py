"""Expression language for the command line.

Grammar (precedence low to high):

    expr    := term (('+' | '-') term)*
    term    := pleth (('*' | '#') pleth)*
    pleth   := unary ('o' unary)*
    unary   := '-' unary | primary
    primary := number | atom | call | '(' expr ')'
    atom    := ('s'|'h'|'e'|'p'|'m'|'A'|'P'|'ts'|'th'|'tx') '[' ints ']'
    call    := name '(' expr (',' expr)* ')'
    number  := INT ('/' INT)?

'*' is the outer product, '#' the internal (Kronecker) product — stable
characters multiply with '#' only.  'o' is outer plethysm.  Functions:
ihat(g, f), D(f, g), sp(f, g), shift(f, c), eval_n(x, n), charpoly(lam).

'-', '+' and '*' are Python's operators, so the value classes decide
what combines and raise the errors (a number is c<()> to a stable
character, see ``symcalc.stable``); the evaluator decides only '#'.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .coeffs import EvalError
from .symfunc import SymExpr, foulkes_derivative, hall_scalar, internal
from .symfunc import elem, homog, mono, power, schur


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


ATOMS = ("ts", "th", "tx", "s", "h", "e", "p", "m", "A", "P")
FUNCTIONS = {"ihat": 2, "D": 2, "sp": 2, "shift": 2, "eval_n": 2,
             "charpoly": 1}   # name -> number of arguments

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<int>\d+)"
                    r"|(?P<sym>[\[\](),+\-*#/]))")
# The binary operators by precedence, low to high, each to its node.
_BINARY = ({"+": "add", "-": "sub"}, {"*": "mul", "#": "inner"},
           {"o": "pleth"})


def tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:   # a bad character, maybe after whitespace, or the end
            rest = text[pos:].lstrip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r}",
                                 len(text) - len(rest))
            break
        tokens.append((m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}",
                             pos)

    def parse(self):
        node = self.binary()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def binary(self, level: int = 0):
        """A left-associative chain of the operators of ``_BINARY[level]``
        over operands of the next level; below the last level, unary."""
        if level == len(_BINARY):
            return self.unary()
        node = self.binary(level + 1)
        while self.peek()[1] in _BINARY[level]:
            node = (_BINARY[level][self.next()[1]], node,
                    self.binary(level + 1))
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.next()
            return ("neg", self.unary())
        return self.primary()

    def primary(self):
        kind, val, pos = self.peek()
        if kind == "int":
            self.next()
            num = int(val)
            if self.peek()[1] == "/":
                self.next()
                k2, v2, p2 = self.next()
                if k2 != "int":
                    raise ParseError("expected an integer denominator", p2)
                den = int(v2)
                if not den:
                    raise ParseError("zero denominator", p2)
                return ("num", Fraction(num, den))
            return ("num", Fraction(num))
        if val == "(":
            self.next()
            node = self.binary()
            self.expect(")")
            return node
        if kind == "name":
            if val in ATOMS:
                self.next()
                return ("atom", val, self.partition_literal())
            if val in FUNCTIONS:
                self.next()
                self.expect("(")
                args = [self.binary()]
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.binary())
                self.expect(")")
                return ("call", val, tuple(args))
            raise ParseError(f"unknown name {val!r}", pos)
        raise ParseError(f"expected an expression, found {val or 'end of input'!r}",
                         pos)

    def partition_literal(self) -> tuple:
        self.expect("[")
        parts = []
        if self.peek()[1] != "]":
            while True:
                kind, val, pos = self.next()
                if kind != "int":
                    raise ParseError("expected a partition part", pos)
                parts.append(int(val))
                if self.peek()[1] == ",":
                    self.next()
                    continue
                break
        self.expect("]")
        out = tuple(parts)
        if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
            raise ParseError("partition parts must be weakly decreasing",
                             self.peek()[2])
        if any(p <= 0 for p in out):
            raise ParseError("partition parts must be positive",
                             self.peek()[2])
        return out


def parse(text: str):
    return Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

_ATOM_MAKERS = {"s": schur, "h": homog, "e": elem, "p": power, "m": mono}
# Every other value comes from symcalc.stable, so a node that may meet
# one imports it, as each node imports alphabets or innerpleth if it runs.
_PLAIN = (SymExpr, Fraction)


def _stable_atom(name: str, lam: tuple):
    from . import stable
    return {"A": stable.angle, "P": stable.dangle, "ts": stable.tilde_s,
            "th": stable.tilde_h, "tx": stable.tilde_x}[name](tuple(lam))


def _as_symexpr(v, what: str) -> SymExpr:
    if isinstance(v, SymExpr):
        return v
    if isinstance(v, Fraction):
        return SymExpr("s", {(): v})
    raise EvalError(f"{what} requires a symmetric function")


def evaluate(node):
    """Evaluate an AST to a SymExpr, StableChar, CharPolynomial or scalar."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "atom":
        if node[1] in _ATOM_MAKERS:
            return _ATOM_MAKERS[node[1]](node[2])
        return _stable_atom(node[1], node[2])
    if kind in ("neg", "add", "sub", "mul"):
        return getattr(operator, kind)(*map(evaluate, node[1:]))
    if kind == "inner":
        a, b = evaluate(node[1]), evaluate(node[2])
        if isinstance(a, SymExpr) and isinstance(b, SymExpr):
            return internal(a, b)
        from .stable import StableChar, stable_kron
        if isinstance(a, StableChar) and isinstance(b, StableChar):
            return stable_kron(a, b)
        raise EvalError("'#' needs two symmetric functions or two stable "
                        "characters")
    if kind == "pleth":
        from .alphabets import outer_plethysm
        a = _as_symexpr(evaluate(node[1]), "plethysm")
        b = _as_symexpr(evaluate(node[2]), "plethysm")
        return outer_plethysm(a, b)
    if kind == "call":
        return _call(node[1], node[2])
    raise EvalError(f"unknown node {kind!r}")


def _call(name: str, args):
    arity = FUNCTIONS.get(name)
    if arity is not None and len(args) != arity:
        raise EvalError(f"{name} takes {arity} arguments, got {len(args)}")
    if name == "ihat":
        g = _as_symexpr(evaluate(args[0]), "ihat")
        f = evaluate(args[1])
        if not isinstance(f, _PLAIN):
            from .stable import StableChar, stable_inner_plethysm
            if isinstance(f, StableChar):
                return stable_inner_plethysm(g, f)
        from .innerpleth import inner_plethysm
        return inner_plethysm(g, _as_symexpr(f, "ihat"))
    if name == "D":
        return foulkes_derivative(_as_symexpr(evaluate(args[0]), "D"),
                                  _as_symexpr(evaluate(args[1]), "D"))
    if name == "sp":
        return hall_scalar(_as_symexpr(evaluate(args[0]), "sp"),
                           _as_symexpr(evaluate(args[1]), "sp"))
    if name == "shift":
        from .alphabets import shift_alphabet
        c = evaluate(args[1])
        if not isinstance(c, Fraction) or c not in (1, -1):
            raise EvalError("shift direction must be 1 or -1")
        return shift_alphabet(_as_symexpr(evaluate(args[0]), "shift"), int(c))
    if name == "eval_n":
        from .stable import StableChar, evaluate_at_n
        x = evaluate(args[0])
        n = evaluate(args[1])
        if not isinstance(x, StableChar):
            raise EvalError("eval_n requires a stable character")
        if not isinstance(n, Fraction) or n.denominator != 1 or n < 0:
            raise EvalError("eval_n requires a nonnegative integer")
        return evaluate_at_n(x, int(n))
    if name == "charpoly":
        from .stable import character_polynomial
        lam = args[0]
        if lam[0] != "atom" or lam[1] not in ("s", "A"):
            raise EvalError("charpoly takes a partition like charpoly(s[2,2])")
        return character_polynomial(lam[2])
    raise EvalError(f"unknown function {name!r}")
