"""Quick test of the benchmark itself: ``python3 bench/selftest.py``.

Runs every workload at a tiny size, checks that verification catches a
deliberately corrupted output, and checks that the benchmark refuses to
run without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

import library
import run
import session

sys.path.insert(0, os.path.join(run.ROOT, "src"))


def bench(*args, cwd=run.ROOT, script=os.path.join(run.BENCH, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)


class TinyRuns(unittest.TestCase):
    def result(self, workload, trace):
        code, out, err = bench("--workload", workload, "--seed", "5",
                               "--seconds", "1", "--trace", str(trace),
                               "--size", "tiny")
        self.assertEqual(code, 0, err)
        res = json.loads(out.strip().splitlines()[-1])
        spec = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(sorted(res["metrics"]), sorted(n for n, _ in spec))
        for name, unit in spec:
            self.assertEqual(res["metrics"][name]["unit"], unit)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertTrue(res["correct"], out)
        return res

    def test_library_workloads(self):
        for workload in ("basis-ladder", "class-functions"):
            res = self.result(workload, 0)
            self.assertEqual(res["failed"], 0)
            for name, _ in run.END_TO_END:
                self.assertGreater(res["metrics"][name]["value"], 0, name)

    def test_cli_session_counts_the_cap_defect(self):
        res = self.result("cli-session", 0)
        # the truncated eval fails in both passes of every repetition
        per_rep = 2 * len(session.script(5, "tiny"))
        self.assertEqual(res["failed"], 2 * res["attempted"] // per_rep)

    def test_traced_runs(self):
        res = self.result("basis-ladder", 1)
        self.assertGreater(res["metrics"]["symfunc.in_basis.calls"]["value"],
                           0)
        res = self.result("cli-session", 1)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        self.assertGreater(m["cache.writes"], 0)
        self.assertGreater(m["cache.gets"], 0)
        self.assertGreater(m["cache.dir_files"], 0)
        self.assertGreater(m["failed_ratio"], 0)
        self.assertGreater(m["trace.overhead_ratio"], 0)


class Verification(unittest.TestCase):
    def run_workload(self, workload):
        sc = library.Symcalc()
        groups = library.make_inputs(workload, 3, "tiny")
        cold, _ = library.run_pass(sc, groups)
        warm, _ = library.run_pass(sc, groups)
        self.assertEqual([v for v in library.verify(sc, groups, cold, warm)
                          if v], [])
        return sc, groups, cold, warm

    def assert_caught(self, sc, groups, cold, warm, index):
        verdicts = library.verify(sc, groups, cold, warm)
        self.assertTrue(verdicts[index], f"corruption of op {index} missed")

    def test_library_checks_catch_corruption(self):
        sc, groups, cold, warm = self.run_workload("basis-ladder")
        ops = [op for _, group in groups for op in group]
        for i, op in enumerate(ops):
            bad = list(cold)
            if op[0] == "chartable":
                table = dict(bad[i])
                key = next(iter(table))
                table[key] += 1
                bad[i] = table
            else:
                expr = bad[i]
                terms = dict(expr.terms)
                lam = next(iter(terms))
                terms[lam] += 1
                bad[i] = type(expr)(expr.basis, terms)
            self.assert_caught(sc, groups, bad, warm, i)

        sc, groups, cold, warm = self.run_workload("class-functions")
        ops = [op for _, group in groups for op in group]
        for i, op in enumerate(ops):
            bad = list(cold)
            if op[0] == "duality":
                lhs, rhs = bad[i]
                bad[i] = (lhs, rhs + Fraction(1, 2))
            else:
                expr = bad[i]
                bad[i] = expr + sc.symfunc.schur(next(iter(expr.terms))) * -2
            self.assert_caught(sc, groups, bad, warm, i)

    def test_warm_output_must_equal_cold(self):
        sc, groups, cold, warm = self.run_workload("class-functions")
        bad = list(warm)
        bad[-1] = bad[-1] * 2
        verdicts = library.verify(sc, groups, cold, bad)
        self.assertTrue(verdicts[-1])

    def test_session_checks_catch_corruption(self):
        cmds = session.script(3, "tiny")
        expected = session.expected_outputs(cmds)
        refs = session.reference_tables(run.ROOT)
        for cmd in cmds:
            if cmd["kind"] == "tables":
                good = refs[cmd["section"]]
            else:
                good = expected[" ".join(cmd["argv"])].encode()
            self.assertIsNone(session.check(cmd, 0, good, None, expected,
                                            refs), cmd)
            self.assertIsNotNone(session.check(cmd, 1, good, None,
                                               expected, refs))
            bad = good.replace(b"1", b"2", 1) if b"1" in good else good + b"x"
            self.assertIsNotNone(session.check(cmd, 0, bad, None,
                                               expected, refs), cmd)
            self.assertIsNotNone(session.check(cmd, 0, bad, good,
                                               expected, refs), cmd)

    def test_cap_eval_fails_verification(self):
        cmd = session.script(3)[-1]
        expected = session.expected_outputs([cmd])
        self.assertIn("known_defect", cmd)
        why = session.check(cmd, 0, b"0\n", None, expected, {})
        self.assertIn(session.MISMATCH, why)


class Refusal(unittest.TestCase):
    def test_refuses_without_sources(self):
        os.makedirs(os.path.join(run.BENCH, ".work"), exist_ok=True)
        tmp = tempfile.mkdtemp(dir=os.path.join(run.BENCH, ".work"))
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.BENCH, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns(".work",
                                                          "__pycache__"))
            code, out, _ = bench("--workload", "basis-ladder", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=tmp,
                                 script=os.path.join(tmp, "bench", "run.py"))
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"metrics"', out)


if __name__ == "__main__":
    unittest.main()
