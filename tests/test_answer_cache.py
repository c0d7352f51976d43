"""Stored CLI answers: with a cache directory, a command that exited 0
before prints its stored stdout and stderr without importing any math
module, a failed command stores nothing, and each command keeps one
answer file, which an answer from other sources replaces."""

import logging
import os
import subprocess
import sys

import pytest

from symcalc import cache as cache_mod
from symcalc.cache import PersistentCache
from test_cli import run_cli
from test_startup import _Records, _answers, _cli, _loaded

MATH = {"symcalc.symfunc", "symcalc.coeffs", "symcalc.partitions",
        "symcalc.render", "symcalc.expr", "symcalc.stable",
        "symcalc.alphabets", "symcalc.tables", "symcalc.apps",
        "symcalc.innerpleth"}
CAPPED = ["eval", "s[7] * s[6]", "--cap", "12"]


def _cli_run(argv, cache=None):
    pre = [] if cache is None else ["--cache", str(cache)]
    env = dict(os.environ)
    env.pop("SYMCALC_CACHE", None)
    proc = subprocess.run([sys.executable, "-m", "symcalc.cli", *pre, *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_a_hit_replays_the_exact_bytes(tmp_path):
    want = _cli_run(CAPPED)
    assert want == (0, "0\n", "note: --cap 12 dropped 7 term(s) of higher "
                              "degree\n")
    for _ in ("cold", "warm"):
        assert _cli_run(CAPPED, tmp_path) == want
    assert len(_answers(tmp_path)) == 1


@pytest.mark.parametrize("argv", [
    CAPPED, ["tables", "--section", "h-on-tilde-h", "--max-degree", "3"],
    ["braid", "--n", "3"]])
def test_a_hit_loads_no_math_module(argv, tmp_path):
    argv = ["--cache", str(tmp_path), *argv]
    assert _loaded(_cli(argv)) & MATH
    loaded = _loaded(_cli(argv))
    assert {"symcalc.cli", "symcalc.cache"} <= loaded
    assert not loaded & MATH


@pytest.mark.parametrize("argv, code", [
    (["eval", "s[2] &"], 2), (["eval", "s[2] # A[1] o"], 2),
    (["braid", "--n", "0"], 3), (["eval", "charpoly(s[1]) * 2"], 3)])
def test_a_failed_command_stores_no_answer(argv, code, tmp_path):
    want = _cli_run(argv)
    assert want[0] == code
    for _ in ("first", "again"):
        assert _cli_run(argv, tmp_path) == want
    assert _answers(tmp_path) == []


def test_a_changed_source_digest_misses(tmp_path, monkeypatch):
    monkeypatch.delenv("SYMCALC_CACHE", raising=False)
    argv = ["--cache", str(tmp_path), *CAPPED]
    try:
        want = run_cli(argv)
        first = _answers(tmp_path)
        assert len(first) == 1 and cache_mod._sources
        assert run_cli(argv) == want
        assert _answers(tmp_path) == first
        monkeypatch.setattr(cache_mod, "_sources", "0" * 64)
        assert run_cli(argv) == want
        assert _answers(tmp_path) == first   # replaced, not kept beside
        [name] = first
        key = name[len("answer-"):-len(".json")]
        stored = PersistentCache(tmp_path).get("answer", key)
        assert stored["sources"] == "0" * 64
    finally:
        cache_mod.set_cache_dir(None)


def test_unreadable_sources_store_no_answer(tmp_path, monkeypatch):
    monkeypatch.delenv("SYMCALC_CACHE", raising=False)
    monkeypatch.setattr(cache_mod, "_sources", "")
    try:
        assert run_cli(["--cache", str(tmp_path), *CAPPED]) == \
            run_cli(CAPPED)
        assert _answers(tmp_path) == []
    finally:
        cache_mod.set_cache_dir(None)


@pytest.mark.parametrize("payload", [[1], "0\n", None,
                                     {"args": {}, "stderr": ""},
                                     {"stdout": "0\n", "stderr": 7}])
def test_a_malformed_answer_is_one_warning_and_a_recompute(payload,
                                                           tmp_path):
    want = _cli_run(CAPPED)
    assert _cli_run(CAPPED, tmp_path) == want
    [name] = _answers(tmp_path)
    key = name[len("answer-"):-len(".json")]
    reader = PersistentCache(tmp_path)
    stored = reader.get("answer", key)
    reader.put("answer", key, payload)   # a valid checksum, a bad payload
    if payload is None:   # a stored null reads as a missing entry
        assert _cli_run(CAPPED, tmp_path) == want
    else:
        code, out, err = _cli_run(CAPPED, tmp_path)
        assert (code, out) == want[:2]
        path = os.path.join(str(tmp_path), name)
        assert err == (f"WARNING symcalc.cache: cache entry {path} "
                       f"malformed; recomputing\n" + want[2])
    # the recomputed answer was stored again, and replays silently
    assert reader.get("answer", key) == stored
    assert _cli_run(CAPPED, tmp_path) == want
    assert _answers(tmp_path) == [name]


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    cache = PersistentCache(tmp_path)
    os.mkdir(cache._path("plethH", "2"))   # os.replace onto it fails
    handler = _Records()
    logger = logging.getLogger("symcalc.cache")
    logger.addHandler(handler)
    try:
        cache.put("plethH", "2", {"1,1": ["1"]})
    finally:
        logger.removeHandler(handler)
    assert len(handler.records) == 1
    assert "cache write to " in handler.records[0].getMessage()
    assert sorted(os.listdir(tmp_path)) == ["plethH-2.json"]
