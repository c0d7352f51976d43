"""The library workloads, ``basis-ladder`` and ``class-functions``.

``run.py`` starts this file once per repetition, in a fresh interpreter
with no persistent cache and ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python3 bench/library.py --workload basis-ladder --seed 7 --trace 0 \
        --out result.json [--spans spans.jsonl] [--size tiny]

The child imports symcalc, runs the operations twice (the cold pass with
empty memo tables, then the warm pass with the tables the cold pass
filled), reads its own peak RSS, and only then verifies every output.
It writes one JSON result for the parent.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import sys
import time
from fractions import Fraction

import common

# Rungs of the ladder and partitions drawn per rung.  The top rung holds
# most of the time: the m->p inversion grows steeply with the degree.
SIZES = {
    "full": {"ladder": range(8, 13), "draw": 3,
             "duality_n": range(5, 9), "duality_d": range(1, 5),
             "duality_per_cell": 10, "kron_n": (7, 8), "kron_per_n": 80},
    "tiny": {"ladder": range(3, 6), "draw": 2,
             "duality_n": range(2, 4), "duality_d": range(1, 3),
             "duality_per_cell": 1, "kron_n": (3,), "kron_per_n": 2},
}


# -- inputs ------------------------------------------------------------------


def make_inputs(workload: str, seed: int, size: str = "full") -> list:
    """The operations of one pass, as plain data, grouped.

    Each group is (name, [op, ...]); an op is a tuple starting with its
    kind.  Only the seed and the size decide them.
    """
    rng = random.Random(f"{workload}/{seed}")
    cfg = SIZES[size]
    groups = []
    if workload == "basis-ladder":
        for n in cfg["ladder"]:
            ops = [("chartable", n)]
            for lam in rng.sample(common.partitions(n), cfg["draw"]):
                ops += [("convert", "s", lam, "h"), ("convert", "s", lam, "m"),
                        ("convert", "s", lam, "e"), ("convert", "h", lam, "s"),
                        ("convert", "m", lam, "p")]
            groups.append((f"n{n}", ops))
    elif workload == "class-functions":
        # Every (n, deg g) cell gets the same number of checks, and f, g
        # are Schur functions, so the cost of a pass hardly depends on
        # the seed.
        ops = []
        for n in cfg["duality_n"]:
            for d in cfg["duality_d"]:
                for _ in range(cfg["duality_per_cell"]):
                    ops.append(("duality", n, rng.choice(common.partitions(d)),
                                rng.choice(common.partitions(n))))
        groups.append(("duality", ops))
        ops = []
        for n in cfg["kron_n"]:
            for _ in range(cfg["kron_per_n"]):
                ops.append(("kron", rng.choice(common.partitions(n)),
                            rng.choice(common.partitions(n))))
        groups.append(("kron", ops))
    else:
        raise ValueError(f"not a library workload: {workload}")
    return groups


# -- operations --------------------------------------------------------------


class Symcalc:
    """Module handles; attribute lookups happen at call time, so the
    tracer's rebinding of module names is seen."""

    def __init__(self):
        for name in ("symfunc", "innerpleth", "apps"):
            setattr(self, name, importlib.import_module(f"symcalc.{name}"))

    def build(self, basis: str, lam):
        sf = self.symfunc
        maker = {"s": sf.schur, "h": sf.homog, "e": sf.elem, "m": sf.mono,
                 "p": sf.power}[basis]
        return maker(lam)

    def apply(self, op):
        sf = self.symfunc
        kind = op[0]
        if kind == "chartable":
            return sf.character_table(op[1])
        if kind == "convert":
            _, src, lam, dst = op
            return sf.convert(self.build(src, lam), dst)
        if kind == "duality":
            _, n, mu, nu = op
            g, f = sf.schur(mu), sf.schur(nu)
            lhs = sf.hall_scalar(
                self.innerpleth.inner_plethysm(g, self.innerpleth.perm_char(n)),
                f)
            rhs = self.apps.littlewood_pair(g, f, sum(mu))
            return (lhs, rhs)
        if kind == "kron":
            _, lam, mu = op
            return sf.internal(sf.schur(lam), sf.schur(mu))
        raise ValueError(f"unknown operation {kind!r}")


def run_pass(sc: Symcalc, groups, tracer=None, op_base: int = 0):
    """Run every op once; return outputs and seconds per group."""
    outputs, times = [], {}
    clock = time.perf_counter
    op_id = op_base
    for name, ops in groups:
        start = clock()
        for op in ops:
            if tracer is not None:
                tracer.op = op_id
            op_id += 1
            outputs.append(sc.apply(op))
        times[name] = clock() - start
    return outputs, times


# -- verification ------------------------------------------------------------


def _is_count(c) -> bool:
    return Fraction(c).denominator == 1 and c >= 0


def check_op(sc: Symcalc, op, out, draw) -> str | None:
    """Why ``out`` is wrong for ``op``, or None.  ``draw`` holds the other
    partitions drawn at the same rung, for the duality checks."""
    sf = sc.symfunc
    kind = op[0]
    if kind == "chartable":
        n = op[1]
        parts = common.partitions(n)
        if set(out) != {(lam, mu) for lam in parts for mu in parts}:
            return "character table has the wrong index set"
        for i, mu in enumerate(parts):
            for nu in parts[i:]:
                dot = sum(out[lam, mu] * out[lam, nu] for lam in parts)
                if dot != (common.z_value(mu) if mu == nu else 0):
                    return f"columns {mu} and {nu} are not orthogonal"
        return None
    if kind == "convert":
        _, src, lam, dst = op
        if out.basis != dst:
            return f"result in basis {out.basis}, wanted {dst}"
        back = sf.convert(out, src)
        if back.basis != src or back.terms != {lam: 1}:
            return f"round trip {src}->{dst}->{src} does not return {src}{lam}"
        if (src, dst) in (("s", "m"), ("h", "s")):
            if not all(_is_count(c) for c in out.terms.values()):
                return "Kostka numbers are not nonnegative integers"
        if (src, dst) == ("s", "m") and out.terms.get(lam) != 1:
            return f"coefficient of m{lam} in s{lam} is not 1"
        # Duality of the bases: <s_lam, s_mu> and <h_lam, m_mu> are delta.
        dual = {("s", "h"): "s", ("h", "s"): "m", ("m", "p"): "h"}.get(
            (src, dst))
        if dual is not None:
            for mu in draw:
                pair = sf.hall_scalar(out, sc.build(dual, mu))
                if pair != (1 if mu == lam else 0):
                    return f"<{src}{lam}, {dual}{mu}> = {pair}"
        return None
    if kind == "duality":
        lhs, rhs = out
        if lhs != rhs:
            return f"Littlewood duality fails: {lhs} != {rhs}"
        if Fraction(lhs).denominator != 1:
            return f"non-integer multiplicity {lhs}"
        return None
    if kind == "kron":
        _, lam, mu = op
        if out.basis != "s" or not out.terms:
            return "Kronecker product empty or not in the Schur basis"
        if not all(_is_count(c) for c in out.terms.values()):
            return "Kronecker coefficients are not nonnegative integers"
        if sf.internal(sf.schur(mu), sf.schur(lam)).terms != out.terms:
            return f"s{lam} # s{mu} != s{mu} # s{lam}"
        return None
    return f"unknown operation {kind!r}"


def _same(a, b) -> bool:
    if hasattr(a, "terms"):
        return a.basis == b.basis and a.terms == b.terms
    return a == b


def verify(sc: Symcalc, groups, cold: list, warm: list) -> list:
    """One verdict per op per pass: None, or the reason it failed.  The
    warm output must equal the cold one, which must pass its check."""
    verdicts, warm_verdicts = [], []
    i = 0
    for _, ops in groups:
        draw = [op[2] for op in ops if op[0] == "convert" and op[1] == "s"
                and op[3] == "h"]
        for op in ops:
            try:
                why = check_op(sc, op, cold[i], draw)
            except Exception as exc:  # a check that raises is a failure
                why = f"verification raised {exc!r}"
            verdicts.append(why and f"{op}: {why}")
            warm_verdicts.append(None if _same(cold[i], warm[i])
                                 else f"{op}: warm output differs from cold")
            i += 1
    return verdicts + warm_verdicts


# -- child entry point -------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    importlib.import_module("symcalc.cli")
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    sc = Symcalc()
    groups = make_inputs(args.workload, args.seed, args.size)
    n_ops = sum(len(ops) for _, ops in groups)

    start = time.perf_counter()
    cold, group_s = run_pass(sc, groups, tracer)
    mid = time.perf_counter()
    warm, _ = run_pass(sc, groups, tracer, op_base=n_ops)
    end = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    trace = None
    if tracer is not None:
        trace = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
        tracer.uninstall()

    verdicts = verify(sc, groups, cold, warm)
    failures = [v for v in verdicts if v]
    result = {"cold_s": mid - start, "warm_s": end - mid,
              "groups_s": group_s, "peak_rss_kb": peak_kb,
              "import_s": import_s, "attempted": len(verdicts),
              "failures": failures,
              "trace": trace}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
