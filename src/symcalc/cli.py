"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 evaluation error, 4 IO error.

Each branch of ``_run`` imports its command's computation, and ``expr``
each node's, so a process loads only the modules its one command runs,
besides ``render``.  With a cache directory, ``main`` first looks up the
command's stored answer (``cache.answer_key``) and, on a hit, prints it
without importing any math module; a command that exits 0 stores its
stdout and stderr there.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from . import __version__
from .cache import answer_key, set_cache_dir, store_answer, stored_answer

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EVAL = 3
EXIT_IO = 4
FORMATS = ("text", "json", "latex")
# tables.SECTIONS, named here so that only the tables command loads tables
SECTIONS = ("inner-plethysm", "perm-chars", "tilde-s-dual", "schur-on-tilde-s",
            "tilde-h-dual", "h-on-tilde-h")


def _partition_arg(text: str):
    from .partitions import partition
    try:
        parts = tuple(int(x) for x in text.split(",") if x.strip())
        return partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _cap_arg(text: str) -> int:
    try:
        cap = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symcalc",
        description="Exact calculator for symmetric functions, inner "
                    "plethysm and stable characters.",
        epilog="Expression grammar: atoms s[2,1], h[3], e[2], p[2], m[1,1], "
               "A[2,1] (stable Schur character), P[2] (stable permutation "
               "character), ts/th/tx (tilde bases); operators + - * "
               "(outer product), # (internal/Kronecker product; '*' would "
               "collide with shell globbing), o (plethysm); functions "
               "ihat(g,f), D(f,g), sp(f,g), shift(f,+-1), eval_n(x,n), "
               "charpoly(s[lam]).")
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--cache", metavar="DIR",
                    help="cache directory (also env var SYMCALC_CACHE): "
                         "keeps the answer of each command run on it; safe "
                         "to delete")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("expression", help="an expression that starts with '-' "
                   "goes after '--': symcalc eval -- '-s[1]'")
    p.add_argument("--basis", choices=("s", "h", "e", "m", "p"), default="s")
    p.add_argument("--cap", type=_cap_arg, default=None,
                   help="print only the terms of degree at most CAP "
                        "(default: no truncation; a note on stderr says "
                        "when terms were dropped)")
    p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("tables", help="print a transition table")
    p.add_argument("--section", required=True, choices=SECTIONS)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("braid", help="cohomology of the pure braid group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("reduced-kron", help="reduced Kronecker coefficients")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--mu", type=_partition_arg, required=True)

    p = sub.add_parser("charpoly", help="character polynomial of a stable "
                                        "Schur character")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("endofunctions",
                       help="cycle signature of the set of endofunctions")
    p.add_argument("--n", type=int, required=True)
    return ap


def _run(args, out, err) -> int:
    from .coeffs import format_coeff
    from .render import (render_charpoly, render_symexpr, render_value,
                         term_sort_key)
    from .symfunc import SymExpr
    if args.command == "eval":
        from .expr import ParseError, evaluate, parse
        try:
            ast = parse(args.expression)
        except ParseError as exc:
            print(f"parse error: {exc}", file=err)
            return EXIT_PARSE
        value = evaluate(ast)
        if isinstance(value, SymExpr):
            value = value.in_basis(args.basis)
            if args.cap is not None:
                kept = value.truncate(args.cap)
                dropped = len(value.terms) - len(kept.terms)
                if dropped:
                    print(f"note: --cap {args.cap} dropped {dropped} "
                          f"term(s) of higher degree", file=err)
                value = kept
        out.write(render_value(value, args.format) + "\n")
        return EXIT_OK

    if args.command == "tables":
        from .tables import render_table
        out.write(render_table(args.section, args.max_degree))
        return EXIT_OK

    if args.command == "braid":
        from .apps import braid_poincare
        for i, ch in enumerate(braid_poincare(args.n)):
            out.write(f"H^{i}: {render_symexpr(ch, args.format)}\n")
        return EXIT_OK

    if args.command == "reduced-kron":
        from .stable import reduced_kron
        coeffs = reduced_kron(args.lam, args.mu)
        for nu in sorted(coeffs, key=term_sort_key("asc")):
            if coeffs[nu]:
                out.write(f"{','.join(map(str, nu)) or '0'}: {coeffs[nu]}\n")
        return EXIT_OK

    if args.command == "charpoly":
        from .stable import character_polynomial
        poly = character_polynomial(args.lam)
        out.write(render_charpoly(poly, args.format) + "\n")
        return EXIT_OK

    if args.command == "endofunctions":
        from .apps import endofunction_signature
        sig = endofunction_signature(args.n)
        total = sig.subs(dict.fromkeys(sig.params, 1))
        out.write(f"{format_coeff(sig)}\n")
        out.write(f"total (all weights 1): {total}\n")
        return EXIT_OK

    raise AssertionError(args.command)


def _guarded(run, err) -> int:
    """run(), with an IO or library error reported on err as exit 4 or 3."""
    try:
        return run()
    except OSError as exc:  # first: io.UnsupportedOperation is a ValueError
        print(f"io error: {exc}", file=err)
        return EXIT_IO
    except (ArithmeticError, ValueError) as exc:  # EvalError, TruncationError
        print(f"evaluation error: {exc}", file=err)
        return EXIT_EVAL


def _print(answer) -> int:
    # stderr first: a --cap note is printed before the answer
    sys.stderr.write(answer["stderr"])
    sys.stdout.write(answer["stdout"])
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {k: v for k, v in vars(args).items() if k != "cache"}
    # set on every call: an earlier in-process call's directory is not kept
    set_cache_dir(args.cache or os.environ.get("SYMCALC_CACHE") or None)
    key = answer_key(command)
    answer = stored_answer(key) if key else None
    code = EXIT_OK
    if answer is None:
        out, err = io.StringIO(), io.StringIO()
        code = _guarded(lambda: _run(args, out, err), err)
        answer = {"stdout": out.getvalue(), "stderr": err.getvalue()}
        if key and code == EXIT_OK:
            store_answer(key, answer)
    return _guarded(lambda: _print(answer), sys.stderr) or code


if __name__ == "__main__":
    sys.exit(main())
