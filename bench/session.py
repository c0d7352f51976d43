"""The ``cli-session`` workload: a fixed script of symcalc commands.

Each command is a fresh process, started only after the previous one has
ended.  ``run.py`` runs the script twice on one ``--cache`` directory:
first empty (cold pass, mostly cache writes), then filled (warm pass,
mostly cache reads).

Run as a program, this file computes the expected stdout of the script's
non-table commands from the library, untruncated and rendered the way the
CLI renders it::

    PYTHONPATH=src python3 bench/session.py --seed 7 --out expected.json [--size tiny]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

import common

# The CLI as the installed ``symcalc`` console script runs it.
CLI_MAIN = "import sys; from symcalc.cli import main; sys.exit(main())"

TABLES = (("inner-plethysm", 6), ("perm-chars", 6), ("schur-on-tilde-s", 6),
          ("h-on-tilde-h", 6), ("tilde-s-dual", 5), ("tilde-h-dual", 5))
# The four sections whose reference is the degree-4 table.  Their
# degree-6 output begins with it, since rows come in order of degree.
PREFIX_SECTIONS = ("inner-plethysm", "perm-chars", "schur-on-tilde-s",
                   "h-on-tilde-h")
REFERENCE_DEGREE = {sec: (4 if sec in PREFIX_SECTIONS else 5)
                    for sec, _ in TABLES}

# The reason check() gives when stdout is not the library's answer.
MISMATCH = "differs from the library's answer"

CAP_DEFECT = ("the default --cap 12 truncates answers of higher degree "
              "and prints what is left with exit 0")


def script(seed: int, size: str = "full") -> list:
    """The commands of one pass, each a dict with ``argv`` and ``kind``.

    The seed draws the partitions; every draw is from a set of equal
    sizes, so the cost of a pass hardly depends on the seed.
    """
    rng = random.Random(f"cli-session/{seed}")

    def pick(n):
        return rng.choice(common.partitions(n))

    def lam(parts):
        return ",".join(map(str, parts))

    def atom(name, parts):
        return f"{name}[{lam(parts)}]"

    cmds = []
    for sec, deg in TABLES:
        if size == "tiny" and sec in PREFIX_SECTIONS:
            deg = 4
        cmds.append({"kind": "tables", "section": sec, "degree": deg,
                     "argv": ["tables", "--section", sec,
                              "--max-degree", str(deg)]})
    a, b = pick(3), pick(2)
    cmds.append({"kind": "reduced-kron", "lam": a, "mu": b,
                 "argv": ["reduced-kron", "--lambda", lam(a), "--mu", lam(b)]})
    a = pick(3)
    cmds.append({"kind": "charpoly", "lam": a,
                 "argv": ["charpoly", "--lambda", lam(a)]})
    cmds.append({"kind": "braid", "n": 5, "argv": ["braid", "--n", "5"]})
    cmds.append({"kind": "endofunctions", "n": 5,
                 "argv": ["endofunctions", "--n", "5"]})
    exprs = [f"{atom('s', pick(6))} # {atom('s', pick(6))}",
             f"ihat({atom('h', pick(2))}, {atom('s', pick(5))})",
             f"eval_n({atom('A', pick(3))}, 7)",
             f"{atom('h', pick(2))} o {atom('e', pick(3))}",
             f"shift({atom('s', pick(4))}, -1)"]
    for text in exprs:
        cmds.append({"kind": "eval", "expr": text, "argv": ["eval", text]})
    # Degree 13: above the default cap, so the CLI prints a truncated
    # answer.  Kept in on purpose; it fails verification until fixed.
    a = rng.choice(((7, 6), (8, 5), (9, 4)))
    text = f"s[{a[0]}] * s[{a[1]}]"
    cmds.append({"kind": "eval", "expr": text, "argv": ["eval", text],
                 "known_defect": CAP_DEFECT})
    return cmds


# -- verification ------------------------------------------------------------


def reference_tables(root: str) -> dict:
    """section -> reference bytes, read from the repository's test data."""
    out = {}
    for sec, _ in TABLES:
        path = os.path.join(root, "tests", "data", "tables",
                            f"{sec}-{REFERENCE_DEGREE[sec]}.txt")
        with open(path, "rb") as fh:
            out[sec] = fh.read()
    return out


def check(cmd: dict, code: int, out: bytes, cold_out: bytes | None,
          expected: dict, refs: dict) -> str | None:
    """Why this command's result is wrong, or None.  ``cold_out`` is the
    cold pass's stdout when checking the warm pass."""
    if code != 0:
        return f"exit code {code}"
    if cold_out is not None and out != cold_out:
        return "warm stdout differs from cold stdout"
    if cmd["kind"] == "tables":
        ref = refs.get(cmd["section"])
        if ref is None:
            return "no reference table"
        if cmd["degree"] == REFERENCE_DEGREE[cmd["section"]]:
            return None if out == ref else "table differs from the reference"
        return (None if out.startswith(ref)
                else "table does not begin with the reference table")
    want = expected.get(" ".join(cmd["argv"]))
    if want is None:
        return "no expected output"
    if out.decode("utf-8", "replace") != want:
        return f"stdout {out[:60]!r} {MISMATCH}"
    return None


def expected_outputs(cmds: list) -> dict:
    """Library answers for the non-table commands, rendered as the CLI
    renders them but without truncation."""
    from fractions import Fraction

    from symcalc.apps import braid_poincare, endofunction_signature
    from symcalc.coeffs import format_coeff
    from symcalc.expr import evaluate, parse
    from symcalc.render import render_charpoly, render_symexpr, render_value
    from symcalc.stable import character_polynomial, reduced_kron
    from symcalc.symfunc import SymExpr

    out = {}
    for cmd in cmds:
        kind = cmd["kind"]
        if kind == "tables":
            continue
        if kind == "eval":
            value = evaluate(parse(cmd["expr"]))
            if isinstance(value, SymExpr):
                value = value.in_basis("s")
            text = render_value(value) + "\n"
        elif kind == "reduced-kron":
            coeffs = reduced_kron(tuple(cmd["lam"]), tuple(cmd["mu"]))
            text = "".join(f"{','.join(map(str, nu)) or '0'}: {coeffs[nu]}\n"
                           for nu in sorted(coeffs, key=lambda t: (sum(t), t))
                           if coeffs[nu])
        elif kind == "charpoly":
            text = render_charpoly(character_polynomial(tuple(cmd["lam"]))) \
                + "\n"
        elif kind == "braid":
            text = "".join(f"H^{i}: {render_symexpr(ch)}\n"
                           for i, ch in enumerate(braid_poincare(cmd["n"])))
        elif kind == "endofunctions":
            sig = endofunction_signature(cmd["n"])
            total = sum(sig.terms.values(), Fraction(0))
            text = f"{format_coeff(sig)}\ntotal (all weights 1): {total}\n"
        else:
            raise ValueError(f"unknown command kind {kind!r}")
        out[" ".join(cmd["argv"])] = text
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="expected cli-session outputs")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(expected_outputs(script(args.seed, args.size)), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
