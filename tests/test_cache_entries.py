"""Cache entries on disk: the exact bytes ``put`` writes, and the one kind
the CLI writes, its commands' answers."""

import hashlib
import json
import os

import pytest

from symcalc.cache import FORMAT_VERSION, PersistentCache
from symcalc.cli import SECTIONS
from test_answer_cache import _cli_run


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


def test_a_cli_directory_holds_only_answers(tmp_path):
    commands = [["tables", "--section", section, "--max-degree", "4"]
                for section in SECTIONS]
    commands += [["reduced-kron", "--lambda", "2,1", "--mu", "1"],
                 ["charpoly", "--lambda", "2,1"],
                 ["eval", "th[2,1] + ts[2] + tx[1,1]"]]
    for argv in commands:
        code, _, err = _cli_run(argv, tmp_path)
        assert (code, err) == (0, ""), argv
    names = os.listdir(tmp_path)
    assert len(names) == len(commands)
    assert all(n.startswith("answer-") and n.endswith(".json")
               for n in names), sorted(names)
