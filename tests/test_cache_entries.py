"""Cache entries on disk: the exact bytes ``put`` writes, and a row entry
whose checksum holds but whose payload is not the rows of its degree,
which warns once and is recomputed and written again."""

import hashlib
import json
import os

import pytest

from symcalc.cache import FORMAT_VERSION, PersistentCache
from test_answer_cache import _cli_run

TABLE = ["tables", "--section", "h-on-tilde-h", "--max-degree", "2"]
ROWS = {"1,1": {"1": "1", "1,1": "1"}, "2": {"1": "1", "2": "1"}}


@pytest.mark.parametrize("kind, payload", [
    ("plethH", {"2,1": {"1": "-1/2", "2,1": "3"}, "3": {"3": "1"}}),
    ("answer", {"args": {"command": "eval", "expression": "s[1]"},
                "stdout": "s[1] — χ\n", "stderr": ""})])
def test_put_writes_one_encoding_of_the_payload(kind, payload, tmp_path):
    cache = PersistentCache(tmp_path)
    cache.put(kind, "3", payload)
    text = json.dumps(payload, sort_keys=True)
    doc = {"payload": payload, "version": FORMAT_VERSION,
           "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    with open(cache._path(kind, "3"), encoding="utf-8") as fh:
        assert fh.read() == json.dumps(doc, sort_keys=True)
    assert cache.get(kind, "3") == payload


@pytest.mark.parametrize("payload", [
    [1], {"2": {"2": "1"}}, {**ROWS, "2": {"1": "1", "2": "x"}},
    {**ROWS, "2": {"1": "1", "2": "1/0"}}])
def test_malformed_rows_are_one_warning_and_a_recompute(payload, tmp_path):
    want = _cli_run(TABLE)
    assert want[0] == 0 and want[2] == ""
    cache = PersistentCache(tmp_path)
    cache.put("plethH", "2", payload)   # a valid checksum, a bad payload
    path = os.path.join(str(tmp_path), "plethH-2.json")
    assert _cli_run(TABLE, tmp_path) == (
        0, want[1],
        f"WARNING symcalc.cache: cache entry {path} malformed; recomputing\n")
    assert cache.get("plethH", "2") == ROWS
