"""The symcalc benchmark: one closed-loop client, measured from outside.

    python3 bench/run.py --workload basis-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  One user waits for each answer: every
repetition is a fresh child process (for ``cli-session``, one process per
command), started only after the previous one has ended.  Repetitions run
until ``--seconds`` is spent; each metric is a median over batches of
them (see BATCH_SECONDS).  With
``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
measured by wrapping symcalc's functions in some of the repetitions.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import library
import session
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("basis-ladder", "class-functions", "cli-session")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cold_s", "s"),
              ("warm_s", "s"), ("peak_rss_mb", "MB")]


def _per_layer() -> list:
    out = [("symfunc.in_basis.calls", "count"),
           ("symfunc.in_basis.self_s", "s"),
           ("symfunc.character_table.self_s", "s"),
           ("symfunc.char_value.calls", "count")]
    out += [(f"symfunc.ladder.n{n}_s", "s")
            for n in library.SIZES["full"]["ladder"]]
    for fn in ("multiply", "internal", "hall_scalar", "foulkes_derivative"):
        out += [(f"symfunc.{fn}.calls", "count"), (f"symfunc.{fn}.self_s", "s")]
    out.append(("symfunc.truncate.kept_ratio", "ratio"))
    for fn in ("inner_plethysm", "adams"):
        out += [(f"innerpleth.{fn}.calls", "count"),
                (f"innerpleth.{fn}.self_s", "s")]
    for fn in ("littlewood_pair", "braid_poincare", "endofunction_signature"):
        out.append((f"apps.{fn}.self_s", "s"))
    for fn in ("outer_plethysm", "shift_alphabet"):
        out += [(f"alphabets.{fn}.calls", "count"),
                (f"alphabets.{fn}.self_s", "s")]
    for fn in ("stable_kron", "to_angle_basis", "evaluate_at_n", "transition",
               "reduced_kron"):
        out.append((f"stable.{fn}.self_s", "s"))
    out += [("stable.tilde_h.calls", "count"),
            ("tables.render_table.self_s", "s"),
            ("cache.gets", "count"), ("cache.hit_ratio", "ratio"),
            ("cache.read_s", "s"), ("cache.writes", "count"),
            ("cache.bytes_written", "B"), ("cache.write_s", "s"),
            ("cache.rejects", "count"), ("cache.dir_files", "count"),
            ("cache.dir_bytes", "B"),
            ("memo.entries", "count"), ("memo.hit_ratio", "ratio")]
    for mod in MEMO_MODULES:
        out += [(f"memo.{mod}.entries", "count"),
                (f"memo.{mod}.hit_ratio", "ratio")]
    out += [("expr.parse.self_s", "s"), ("expr.evaluate.self_s", "s"),
            ("render.render_value.self_s", "s"), ("cli.import_s", "s")]
    out += [(f"{mod}.self_s", "s") for mod in tracer.LAYERS]
    out += [("trace.overhead_ratio", "ratio"), ("failed_ratio", "ratio")]
    return out


# Modules that hold lru_cache memo tables.
MEMO_MODULES = ("partitions", "symfunc", "stable", "alphabets")
PER_LAYER = _per_layer()

# Children still running this long after a run starts are killed, and
# the child computing expected outputs gets VERIFY_LIMIT, so that a run
# ends within 180 seconds even if symcalc hangs.
RUN_LIMIT = 140.0
VERIFY_LIMIT = 25.0

# Set-up probes: at least this many per run, and this many before each
# repetition, so that they spread over the run.
SETUP_MIN = 9
SETUP_PER_REP = 2

# The host's speed swings between slow and fast phases lasting seconds.
# A median over short repetitions picks whichever phase held the majority
# of them, so metrics are medians over batches: consecutive repetitions
# spanning at least this long, each valued at the mean of its samples.
BATCH_SECONDS = 20.0


class ChildFailed(Exception):
    pass


def timed_process(argv, env, timeout, stdout=subprocess.DEVNULL,
                  stderr=subprocess.DEVNULL):
    """Run argv to completion, killing it after ``timeout`` seconds; return
    (exit code, wall seconds, peak RSS in KiB of that process alone)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


class Run:
    """One benchmark run: a workload, a seed and a work directory."""

    def __init__(self, workload, seed, work, size="full"):
        self.workload, self.seed, self.work, self.size = (workload, seed,
                                                          work, size)
        self.python = sys.executable
        self.env = dict(os.environ)
        self.env.pop("SYMCALC_CACHE", None)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.setup = []
        self.reps = []          # untraced repetitions
        self.traced = []        # traced repetitions
        self.attempted = 0
        self.failures = []      # (reason, known defect or None)
        self.crashed = 0
        self._n = 0
        self._deadline = time.perf_counter() + RUN_LIMIT

    def child(self, argv, **streams):
        """timed_process under the run's deadline."""
        left = max(self._deadline - time.perf_counter(), 0.1)
        return timed_process(argv, self.env, left, **streams)

    def path(self, name):
        self._n += 1
        return os.path.join(self.work, f"{self._n}-{name}")

    def probe_setup(self):
        if self.workload == "cli-session":
            argv = [self.python, "-c", session.CLI_MAIN, "eval", "1"]
        else:
            argv = [self.python, "-c", "import symcalc"]
        code, wall, _ = self.child(argv)
        if code != 0:
            raise ChildFailed(f"set-up probe exited with {code}")
        return wall

    # -- library workloads ---------------------------------------------------

    def library_rep(self, traced):
        out = self.path("result.json")
        argv = [self.python, os.path.join(BENCH, "library.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--trace", str(int(traced)), "--out", out,
                "--size", self.size]
        if traced:
            argv += ["--spans", self.path("spans.jsonl")]
        err = self.path("stderr.txt")
        with open(err, "wb") as fh:
            code, _, _ = self.child(argv, stderr=fh)
        if code != 0:
            n_ops = sum(len(ops) for _, ops in library.make_inputs(
                self.workload, self.seed, self.size))
            self.attempted += 2 * n_ops
            self.crashed += 1
            self.failures += [(f"child exited with {code}: {_tail(err)}",
                               None)] * (2 * n_ops)
            return None
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        self.attempted += res["attempted"]
        self.failures += [(why, None) for why in res["failures"]]
        rep = {"cold_s": res["cold_s"], "warm_s": res["warm_s"],
               "peak_rss_kb": res["peak_rss_kb"],
               "groups_s": res["groups_s"]}
        if traced:
            rep["trace"] = merge_traces([dict(res["trace"],
                                              import_s=res["import_s"])])
        return rep

    # -- cli-session ---------------------------------------------------------

    def session_rep(self, traced, cmds):
        cache = self.path("cache")
        rep = {"outputs": {}, "peak_rss_kb": 0}
        summaries = []
        for pass_name in ("cold", "warm"):
            total = 0.0
            outs = []
            for cmd in cmds:
                out, err = self.path("stdout.txt"), self.path("stderr.txt")
                if traced:
                    summary = self.path("summary.json")
                    argv = [self.python, os.path.join(BENCH, "cli_traced.py"),
                            summary, self.path("spans.jsonl"), "--"]
                else:
                    argv = [self.python, "-c", session.CLI_MAIN]
                argv += ["--cache", cache] + cmd["argv"]
                with open(out, "wb") as fo, open(err, "wb") as fe:
                    code, wall, rss = self.child(argv, stdout=fo, stderr=fe)
                total += wall
                rep["peak_rss_kb"] = max(rep["peak_rss_kb"], rss)
                with open(out, "rb") as fh:
                    outs.append((code, fh.read(), _tail(err)))
                if traced and code == 0:
                    with open(summary, encoding="utf-8") as fh:
                        summaries.append(json.load(fh))
            rep[f"{pass_name}_s"] = total
            rep["outputs"][pass_name] = outs
            if pass_name == "cold":
                files = ([os.path.join(cache, f) for f in os.listdir(cache)]
                         if os.path.isdir(cache) else [])
                rep["dir_files"] = len(files)
                rep["dir_bytes"] = sum(os.path.getsize(f) for f in files)
        if traced:
            rep["trace"] = merge_traces(summaries)
        return rep

    def verify_session(self, cmds):
        """Check every command of every repetition, outside the timing."""
        exp_path = self.path("expected.json")
        err = self.path("stderr.txt")
        with open(err, "wb") as fh:
            code, _, _ = timed_process(
                [self.python, os.path.join(BENCH, "session.py"), "--seed",
                 str(self.seed), "--out", exp_path, "--size", self.size],
                self.env, VERIFY_LIMIT, stderr=fh)
        expected = {}
        if code == 0:
            with open(exp_path, encoding="utf-8") as fh:
                expected = json.load(fh)
        try:
            refs = session.reference_tables(ROOT)
        except OSError:
            refs = {}
        for rep in self.reps + self.traced:
            cold = rep["outputs"]["cold"]
            for pass_name in ("cold", "warm"):
                for i, cmd in enumerate(cmds):
                    code, out, err_text = rep["outputs"][pass_name][i]
                    why = session.check(cmd, code, out,
                                        cold[i][1] if pass_name == "warm"
                                        else None, expected, refs)
                    self.attempted += 1
                    if why:
                        known = (cmd.get("known_defect")
                                 if session.MISMATCH in why else None)
                        if code != 0 and err_text:
                            why += f" ({err_text})"
                        self.failures.append(
                            (f"{pass_name} `{' '.join(cmd['argv'])}`: {why}",
                             known))

    # -- the loop ------------------------------------------------------------

    def measure(self, seconds, trace):
        if self.workload == "cli-session":
            cmds = session.script(self.seed, self.size)

            def rep_fn(traced):
                return self.session_rep(traced, cmds)
        else:
            rep_fn = self.library_rep
        self.probe_setup()      # untimed: fills the bytecode cache
        start = time.perf_counter()
        durations = {False: [], True: []}
        while True:
            traced = trace and len(self.traced) < len(self.reps)
            probes = [self.probe_setup() for _ in range(SETUP_PER_REP)]
            self.setup += probes
            t0 = time.perf_counter()
            rep = rep_fn(traced)
            durations[traced].append(time.perf_counter() - t0)
            if rep is not None:
                rep.update(duration=durations[traced][-1], setup=probes)
                (self.traced if traced else self.reps).append(rep)
            elapsed = time.perf_counter() - start
            nxt = trace and len(self.traced) < len(self.reps)
            expected = max(durations[nxt] or durations[not nxt])
            have_all = self.reps and (self.traced or not trace)
            if have_all and elapsed + expected > seconds:
                break
            if not have_all and self.crashed >= 3:
                break   # the program keeps failing; report what we have
        while self.reps and len(self.setup) < SETUP_MIN:
            probe = self.probe_setup()
            self.setup.append(probe)
            self.reps[-1]["setup"].append(probe)
        if self.workload == "cli-session":
            self.verify_session(cmds)

    # -- metrics -------------------------------------------------------------

    def batches(self):
        """Consecutive untraced repetitions grouped into batches of at
        least BATCH_SECONDS; a short tail joins the last batch."""
        out, cur, length = [], [], 0.0
        for rep in self.reps:
            cur.append(rep)
            length += rep["duration"]
            if length >= BATCH_SECONDS:
                out.append(cur)
                cur, length = [], 0.0
        if cur and out:
            out[-1] += cur
        elif cur:
            out.append(cur)
        return out

    def end_to_end(self):
        """Median over batches of each batch's mean."""
        batches = self.batches()

        def per_batch(fn):
            return median([statistics.fmean(fn(rep) for rep in batch)
                           for batch in batches])

        return {"setup_s": median([statistics.fmean(
                    p for rep in batch for p in rep["setup"])
                    for batch in batches]),
                "wall_s": per_batch(lambda r: r["cold_s"] + r["warm_s"]),
                "cold_s": per_batch(lambda r: r["cold_s"]),
                "warm_s": per_batch(lambda r: r["warm_s"]),
                "peak_rss_mb": per_batch(lambda r: r["peak_rss_kb"]) / 1024}

    def per_layer(self):
        per_rep = [layer_metrics(r) for r in self.traced]
        out = {name: median([m[name] for m in per_rep])
               for name in per_rep[0]} if per_rep else {}
        for n in library.SIZES["full"]["ladder"]:
            out[f"symfunc.ladder.n{n}_s"] = median(
                [r["groups_s"].get(f"n{n}", 0.0) for r in self.reps
                 if "groups_s" in r])
        out["trace.overhead_ratio"] = ratio(
            median([r["cold_s"] + r["warm_s"] for r in self.traced]),
            median([r["cold_s"] + r["warm_s"] for r in self.reps]))
        out["failed_ratio"] = ratio(len(self.failures), self.attempted)
        return out


def merge_traces(summaries):
    """Sum the tracer summaries of the processes of one repetition.  Memo
    entries take the largest process; hits and misses add up."""
    funcs: dict = {}
    totals = {"truncate_in": 0, "truncate_out": 0, "cache_hits": 0,
              "cache_misses": 0, "bytes_written": 0, "cache_rejects": 0}
    memo: dict = {}
    memo_entries = 0
    for s in summaries:
        for name, row in s["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "busy_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key in totals:
            totals[key] += s[key]
        memo_entries = max(memo_entries, sum(m["entries"]
                                             for m in s["memo"].values()))
        for mod, m in s["memo"].items():
            acc = memo.setdefault(mod, {"entries": 0, "hits": 0, "misses": 0})
            acc["entries"] = max(acc["entries"], m["entries"])
            acc["hits"] += m["hits"]
            acc["misses"] += m["misses"]
    return dict(totals, functions=funcs, memo=memo, memo_entries=memo_entries,
                import_s=median([s["import_s"] for s in summaries]))


def layer_metrics(rep):
    """Per-layer metrics of one traced repetition."""
    t = rep["trace"]
    funcs = t["functions"]

    def calls(name):
        return funcs.get(name, {}).get("calls", 0)

    def self_s(name):
        return funcs.get(name, {}).get("self_s", 0.0)

    out = {}
    for name, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls(base)
        elif kind == "self_s" and base in tracer.LAYERS:
            out[name] = sum(row["self_s"] for fn, row in funcs.items()
                            if fn.startswith(base + "."))
        elif kind == "self_s":
            out[name] = self_s(base)
    hits, misses = t["cache_hits"], t["cache_misses"]
    memo = t["memo"]
    out.update({
        "symfunc.truncate.kept_ratio": ratio(t["truncate_out"],
                                             t["truncate_in"]),
        "cache.gets": hits + misses,
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.read_s": funcs.get("cache.get", {}).get("busy_s", 0.0),
        "cache.writes": calls("cache.put"),
        "cache.bytes_written": t["bytes_written"],
        "cache.write_s": funcs.get("cache.put", {}).get("busy_s", 0.0),
        "cache.rejects": t["cache_rejects"],
        "cache.dir_files": rep.get("dir_files", 0),
        "cache.dir_bytes": rep.get("dir_bytes", 0),
        "memo.entries": t["memo_entries"],
        "memo.hit_ratio": ratio(sum(m["hits"] for m in memo.values()),
                                sum(m["hits"] + m["misses"]
                                    for m in memo.values())),
        "cli.import_s": t["import_s"],
    })
    for mod in MEMO_MODULES:
        m = memo.get(mod, {"entries": 0, "hits": 0, "misses": 0})
        out[f"memo.{mod}.entries"] = m["entries"]
        out[f"memo.{mod}.hit_ratio"] = ratio(m["hits"], m["hits"] + m["misses"])
    return out


def _tail(path, limit=200):
    try:
        with open(path, "rb") as fh:
            lines = fh.read().decode("utf-8", "replace").strip().splitlines()
    except OSError:
        return ""
    return lines[-1][:limit] if lines else ""


def report(run, trace):
    """Human-readable lines, then the JSON result as the last line."""
    if trace:
        values, spec = run.per_layer(), PER_LAYER
    else:
        values, spec = run.end_to_end(), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in spec}
    failed = len(run.failures)
    unknown = [why for why, known in run.failures if not known]
    print(f"workload {run.workload}, seed {run.seed}: "
          f"{len(run.reps)} timed and {len(run.traced)} traced repetitions, "
          f"{len(run.setup)} set-up probes")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  operations: {run.attempted} attempted, {failed} failed")
    for why in sorted({why for why, _ in run.failures})[:10]:
        print(f"  FAILED {why}")
    for known in sorted({k for _, k in run.failures if k}):
        print(f"  known defect, counted as failed: {known}")
    result = {"correct": not unknown and run.crashed == 0,
              "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="symcalc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a quick smoke size for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "symcalc", "__init__.py")):
        print(f"error: no symcalc sources under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BENCH, ".work"))
    try:
        run = Run(args.workload, args.seed, work, args.size)
        run.measure(args.seconds, bool(args.trace))
        if not run.reps or (args.trace and not run.traced):
            for why, _ in run.failures[:5]:
                print(f"FAILED {why}", file=sys.stderr)
            print("error: no repetition completed", file=sys.stderr)
            return 1
        if args.trace:
            keep_spans(work, args.workload)
        report(run, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def keep_spans(work, workload):
    """Move the span files of a traced run to bench/.work/spans-<workload>."""
    dest = os.path.join(BENCH, ".work", f"spans-{workload}")
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    for name in os.listdir(work):
        if name.endswith("spans.jsonl"):
            shutil.move(os.path.join(work, name), dest)


if __name__ == "__main__":
    sys.exit(main())
