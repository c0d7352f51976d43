"""The golden CLI corpus: every command in ``data/golden/cli.json`` gives
exactly its recorded exit code, stdout and stderr.

The corpus covers all six ``tables`` sections at ``--max-degree`` 1-7,
``braid --n 1..8``, ``endofunctions --n 1..7``, four ``reduced-kron``
pairs, five ``charpoly`` calls in each format and 39 ``eval`` forms in
every ``--format`` and ``--basis``; every command exits 0.  The test
replays each command in-process through ``symcalc.cli.main`` with no
cache directory and compares bytes; another test replays them all twice
through one ``--cache`` directory, where the second pass prints the
stored answers.  The tests only read the file; it is written by
``write_corpus``, from a tree whose answers are the reference::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from symcalc.cache import set_cache_dir
from symcalc.cli import FORMATS, SECTIONS, main

PATH = os.path.join(os.path.dirname(__file__), "data", "golden", "cli.json")

EVAL_FORMS = (
    # the expressions of test_cli.py
    "s[4,1] # s[4,1]", "2 * s[2,1] - 1/2 * p[2]", "h[2] o (s[1] + s[2])",
    "ihat(e[2], A[1])", "eval_n(A[2,2], 6)", "sp(s[2,1], h[2,1])",
    "D(p[2], h[3,1])", "shift(ts[2] + th[1,1], -1)",
    "-(s[2] + s[1,1]) * s[1]", "charpoly(s[2])", "A[2] # (A[1] # A[1])",
    "3/2 * tx[2,1]",
    # the eval forms of the cli-session benchmark, seeds 1-3
    "s[6] # s[5,1]", "ihat(h[1,1], s[2,2,1])", "eval_n(A[3], 7)",
    "h[1,1] o e[1,1,1]", "shift(s[3,1], -1)", "s[7] * s[6]",
    "s[4,2] # s[6]", "ihat(h[1,1], s[2,1,1,1])", "eval_n(A[2,1], 7)",
    "h[2] o e[3]", "shift(s[4], -1)", "s[9] * s[4]",
    "s[2,2,1,1] # s[2,2,2]", "shift(s[1,1,1,1], -1)",
    # the other atoms and operations
    "P[2] # P[1,1]", "ts[2,1] * th[1]", "m[2,1] * e[2]",
    "1/3 * p[3] - p[2,1] + 2 * h[1,1,1]", "D(s[1], s[3,2])",
    "s[2] o (p[2] - s[1,1])", "ihat(s[2], A[2,1])",
    # stable characters with numbers, either side of the operator
    "1 + A[1]", "A[2,1] - 2", "1/2 - P[1]", "-(P[2] - A[1])",
    "2 * A[1] * 3/2", "P[1] - P[1]",
)

REDUCED_KRON = (("2,1", "1,1"), ("1,1,1", "2"), ("3", "2"), ("2,2", "2,1"))
CHARPOLY = ("1", "2", "1,1", "2,1", "3,1")


def commands() -> list:
    """The corpus's command lines, in order."""
    cmds = [["tables", "--section", sec, "--max-degree", str(k)]
            for sec in SECTIONS for k in range(1, 8)]
    cmds += [["braid", "--n", str(n)] for n in range(1, 9)]
    cmds += [["endofunctions", "--n", str(n)] for n in range(1, 8)]
    cmds += [["reduced-kron", "--lambda", a, "--mu", b]
             for a, b in REDUCED_KRON]
    cmds += [["charpoly", "--lambda", lam, "--format", fmt]
             for lam in CHARPOLY for fmt in FORMATS]
    for text in EVAL_FORMS:
        cmds += [["eval", text, "--format", fmt] for fmt in FORMATS]
        cmds += [["eval", text, "--basis", b] for b in "hemp"]
    return cmds


def run(argv) -> dict:
    """One command in-process: its exit code and captured streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def write_corpus(path: str = PATH) -> None:
    """Record every command of ``commands()`` in ``path``."""
    os.environ.pop("SYMCALC_CACHE", None)
    records = [run(argv) for argv in commands()]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:   # a record per line
        fh.write("[\n" + ",\n".join(json.dumps(r, ensure_ascii=False)
                                     for r in records) + "\n]\n")


def _corpus() -> list:
    if not os.path.exists(PATH):   # fails test_corpus_is_the_command_list
        return []
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


CORPUS = _corpus()


def test_corpus_is_the_command_list():
    assert [r["argv"] for r in CORPUS] == commands()
    assert all(r["exit"] == 0 for r in CORPUS)


@pytest.mark.parametrize("record", CORPUS,
                         ids=[" ".join(r["argv"]) for r in CORPUS])
def test_command_replays_byte_for_byte(record, monkeypatch):
    monkeypatch.delenv("SYMCALC_CACHE", raising=False)
    assert run(record["argv"]) == record


def _files(directory) -> dict:
    """name -> (mtime, bytes) of each file in ``directory``."""
    out = {}
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        with open(path, "rb") as fh:
            out[name] = (os.stat(path).st_mtime_ns, fh.read())
    return out


def test_corpus_replays_cold_then_warm_through_one_cache(tmp_path,
                                                         monkeypatch):
    # the warm pass prints every command's stored answer
    monkeypatch.delenv("SYMCALC_CACHE", raising=False)
    cache = str(tmp_path / "cache")
    want = [dict(r, argv=["--cache", cache, *r["argv"]]) for r in CORPUS]
    try:
        assert [run(r["argv"]) for r in want] == want
        cold = _files(cache)
        assert len([n for n in cold if n.startswith("answer-")]) == len(want)
        assert [run(r["argv"]) for r in want] == want
        assert _files(cache) == cold
    finally:
        set_cache_dir(None)


if __name__ == "__main__":
    write_corpus()
