"""Every error the expression language raises, as ``symcalc eval`` prints
it: the exact stderr line and the exit code (2 for a parse error, 3 for an
evaluation error), with nothing on stdout.

Each ``raise ParseError`` and ``raise EvalError`` in ``symcalc.expr`` that
a parsed expression can reach has at least one case here; ``unknown node``
and ``unknown function`` guard the evaluator against ASTs the parser never
builds.  The evaluator applies ``-``, ``+`` and ``*`` as Python operators,
so the errors of those three are raised by the value classes themselves
(``StableChar`` and ``CharPolynomial`` in ``symcalc.stable``); each mixed
pair of operands of ``+`` and ``*`` has a case in both orders.
"""

import pytest

from symcalc.cli import main

PARSE_ERRORS = [
    ("s[1]$", "unexpected character '$' (at position 4)"),
    ("s[2] & 1", "unexpected character '&' (at position 5)"),
    ("(s[1]", "expected ')', found 'end of input' (at position 5)"),
    ("s[1 2]", "expected ']', found '2' (at position 4)"),
    ("ihat(s[1] s[1])", "expected ')', found 's' (at position 10)"),
    ("s", "expected '[', found 'end of input' (at position 1)"),
    ("ihat", "expected '(', found 'end of input' (at position 4)"),
    ("s[1] s[2]", "unexpected trailing input 's' (at position 5)"),
    ("s[1]]", "unexpected trailing input ']' (at position 4)"),
    ("1/s[1]", "expected an integer denominator (at position 2)"),
    ("1/-1", "expected an integer denominator (at position 2)"),
    ("1/0", "zero denominator (at position 2)"),
    ("q[1]", "unknown name 'q' (at position 0)"),
    ("", "expected an expression, found 'end of input' (at position 0)"),
    ("s[1] +", "expected an expression, found 'end of input' (at position 6)"),
    ("ihat(", "expected an expression, found 'end of input' (at position 5)"),
    ("s[1,]", "expected a partition part (at position 4)"),
    ("s[", "expected a partition part (at position 2)"),
    ("s[2,3]", "partition parts must be weakly decreasing (at position 6)"),
    ("s[0]", "partition parts must be positive (at position 4)"),
    ("s[1,0]", "partition parts must be positive (at position 6)"),
]

EVAL_ERRORS = [
    ("A[1] o s[1]", "plethysm requires a symmetric function"),
    ("s[2] o A[1]", "plethysm requires a symmetric function"),
    ("ihat(A[1], s[1])", "ihat requires a symmetric function"),
    ("D(A[1], s[1])", "D requires a symmetric function"),
    ("sp(s[1], A[1])", "sp requires a symmetric function"),
    ("shift(A[1], 1)", "shift requires a symmetric function"),
    ("s[1] # 1", "'#' needs two symmetric functions or two stable "
                 "characters"),
    ("1 # 2", "'#' needs two symmetric functions or two stable characters"),
    ("A[1] # s[1]", "'#' needs two symmetric functions or two stable "
                    "characters"),
    ("charpoly(s[1]) + 1", "character polynomials take no '+', '-' or '*'"),
    ("(-charpoly(s[1]))", "character polynomials take no '+', '-' or '*'"),
    ("2 * charpoly(s[1])", "character polynomials take no '+', '-' or '*'"),
    ("A[1] + s[1]", "cannot mix stable characters with symmetric functions "
                    "in a sum"),
    ("A[1] * A[1]", "use '#' for products of stable characters"),
    ("A[1] * s[1]", "stable characters only scale by numbers"),
    # the mirror operand orders
    ("s[1] + A[1]", "cannot mix stable characters with symmetric functions "
                    "in a sum"),
    ("s[1] - A[1]", "cannot mix stable characters with symmetric functions "
                    "in a sum"),
    ("A[1] - s[1]", "cannot mix stable characters with symmetric functions "
                    "in a sum"),
    ("s[1] * A[1]", "stable characters only scale by numbers"),
    ("1 + charpoly(s[1])", "character polynomials take no '+', '-' or '*'"),
    ("A[1] + charpoly(s[1])", "character polynomials take no '+', '-' or "
                              "'*'"),
    ("charpoly(s[1]) + A[1]", "character polynomials take no '+', '-' or "
                              "'*'"),
    ("charpoly(s[1]) * 2", "character polynomials take no '+', '-' or '*'"),
    ("charpoly(s[1]) * A[1]", "character polynomials take no '+', '-' or "
                              "'*'"),
    ("A[1] * charpoly(s[1])", "character polynomials take no '+', '-' or "
                              "'*'"),
    ("charpoly(s[1]) # A[1]", "'#' needs two symmetric functions or two "
                              "stable characters"),
    ("ihat(s[2])", "ihat takes 2 arguments, got 1"),
    ("D(s[1])", "D takes 2 arguments, got 1"),
    ("sp(s[1], s[1], s[1])", "sp takes 2 arguments, got 3"),
    ("shift(s[1])", "shift takes 2 arguments, got 1"),
    ("eval_n(A[1])", "eval_n takes 2 arguments, got 1"),
    ("charpoly(s[1], s[2])", "charpoly takes 1 arguments, got 2"),
    ("shift(s[2], 2)", "shift direction must be 1 or -1"),
    ("eval_n(s[2], 3)", "eval_n requires a stable character"),
    ("eval_n(A[2], 1/2)", "eval_n requires a nonnegative integer"),
    ("eval_n(A[2], -1)", "eval_n requires a nonnegative integer"),
    ("charpoly(h[2])", "charpoly takes a partition like charpoly(s[2,2])"),
]


@pytest.mark.parametrize(
    "text, code, line",
    [(t, 2, f"parse error: {m}") for t, m in PARSE_ERRORS]
    + [(t, 3, f"evaluation error: {m}") for t, m in EVAL_ERRORS])
def test_eval_error_line_and_exit_code(text, code, line, capsys):
    assert main(["eval", text]) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", line + "\n")
