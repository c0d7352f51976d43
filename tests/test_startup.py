"""The public API loads lazily and a CLI process imports only what its
command runs; the cache's warnings keep their logger and their text."""

import importlib
import json
import logging
import os
import shutil
import subprocess
import sys

import pytest

import symcalc
from symcalc.cache import PersistentCache

PUBLIC = {
    "alphabets": ["invert_sigma", "lie_character", "outer_plethysm",
                  "scale_alphabet", "shift_alphabet", "sigma_minus_one",
                  "sigma_series"],
    "apps": ["braid_poincare", "endofunction_signature", "gay_restriction",
             "gay_restriction_perm", "littlewood_pair", "stable_cohomology",
             "stable_weight_orbits", "weight_orbit_decomposition"],
    "innerpleth": ["adams", "eigenvalue_eval", "graded_poly_char",
                   "inner_plethysm", "perm_char"],
    "stable": ["CharPolynomial", "StableChar", "angle", "character_polynomial",
               "dangle", "evaluate_at_n", "mixed_product", "reduced_kron",
               "stable_coproduct_tilde_s", "stable_inner_plethysm",
               "stable_kron", "tilde_h", "tilde_h_expand", "tilde_s",
               "tilde_x", "to_angle_basis", "transition"],
    "symfunc": ["SymExpr", "character_table", "convert", "elem",
                "foulkes_derivative", "hall_scalar", "homog", "internal",
                "lr_coefficient", "mn_character", "mono", "multiply", "omega",
                "power", "schur", "skew_schur"],
}
HOME = {name: module for module, names in PUBLIC.items() for name in names}
NAMES = sorted(HOME)


def _defined(name):
    return getattr(importlib.import_module(f"symcalc.{HOME[name]}"), name)


def test_all_lists_the_public_names():
    assert len(NAMES) == 53
    assert sorted(symcalc.__all__) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_public_name_is_the_defining_modules_object(name):
    for _ in ("first use", "bound"):
        assert getattr(symcalc, name) is _defined(name)


def test_star_import_and_dir():
    namespace = {}
    exec("from symcalc import *", namespace)
    for name in NAMES:
        assert namespace[name] is _defined(name)
    assert set(NAMES) <= set(dir(symcalc))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        symcalc.no_such_name


def test_coproduct_and_mixed_product_through_the_lazy_exports():
    from symcalc import stable
    assert (symcalc.stable_coproduct_tilde_s((2, 1))
            == stable.stable_coproduct_tilde_s((2, 1)))
    assert (symcalc.mixed_product((1,), (1,))
            == stable.mixed_product((1,), (1,))
            == {(2,): 1, (1, 1): 1, (1,): 2, (): 1})


# -- import footprint --------------------------------------------------------

# Prints the modules a fresh process imported after start-up.
PROBE = """import json, sys
before = set(sys.modules)
{body}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _loaded(body):
    env = dict(os.environ)
    env.pop("SYMCALC_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli(argv):
    return (f"from symcalc.cli import main\n"
            f"if main({argv!r}):\n    sys.exit('exit code not 0')")


def test_import_symcalc_loads_no_submodule():
    loaded = _loaded("import symcalc")
    assert "symcalc" in loaded
    assert not [m for m in loaded if m.startswith("symcalc.")]


@pytest.mark.parametrize("argv", [
    ["tables", "--section", "perm-chars", "--max-degree", "3"],
    ["reduced-kron", "--lambda", "2,1", "--mu", "1"]])
def test_tables_and_reduced_kron_skip_expr_innerpleth_and_apps(argv):
    loaded = _loaded(_cli(argv))
    assert ("symcalc.tables" in loaded) == (argv[0] == "tables")
    assert not loaded & {"symcalc.expr", "symcalc.innerpleth",
                         "symcalc.apps"}


def test_braid_skips_expr():
    loaded = _loaded(_cli(["braid", "--n", "3"]))
    assert "symcalc.apps" in loaded and "symcalc.expr" not in loaded


def test_no_logging_without_a_cache_warning(tmp_path):
    cache = str(tmp_path / "cache")
    argv = ["--cache", cache, "tables", "--section", "h-on-tilde-h",
            "--max-degree", "3"]
    for _ in ("cold", "warm"):
        assert "logging" not in _loaded(_cli(argv))
    assert os.listdir(cache)
    assert "logging" not in _loaded(_cli(["eval", "s[2,1] # s[2,1]"]))


@pytest.mark.parametrize("argv", [
    ["eval", "ihat(h[2], s[2,1])"],
    ["tables", "--section", "h-on-tilde-h", "--max-degree", "3"]])
def test_no_hashlib_without_a_cache(argv):
    assert "hashlib" not in _loaded(_cli(argv))


# -- the warning channel -----------------------------------------------------


def test_corrupted_cache_warns_on_the_cache_logger(tmp_path):
    cache = str(tmp_path / "cache")
    argv = [sys.executable, "-m", "symcalc.cli", "--cache", cache, "tables",
            "--section", "h-on-tilde-h", "--max-degree", "3"]
    assert subprocess.run(argv, capture_output=True).returncode == 0
    for name in os.listdir(cache):
        with open(os.path.join(cache, name), "w") as fh:
            fh.write("{ corrupted")
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert lines
    assert all(line.startswith("WARNING symcalc.cache: cache entry ")
               for line in lines)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def test_each_reject_is_one_record_on_the_cache_logger(tmp_path):
    cache = PersistentCache(tmp_path)
    for key in ("unreadable", "version", "checksum", "good"):
        cache.put("kind", key, {"value": key})
    with open(cache._path("kind", "unreadable"), "w") as fh:
        fh.write("{ corrupted")
    for key, change in (("version", {"version": -1}),
                        ("checksum", {"sha256": "0" * 64})):
        with open(cache._path("kind", key)) as fh:
            doc = json.load(fh)
        with open(cache._path("kind", key), "w") as fh:
            json.dump(dict(doc, **change), fh)
    handler = _Records()
    logger = logging.getLogger("symcalc.cache")
    logger.addHandler(handler)
    try:
        got = [cache.get("kind", key)
               for key in ("unreadable", "version", "checksum", "good")]
    finally:
        logger.removeHandler(handler)
    assert got == [None, None, None, {"value": "good"}]
    assert [r.name for r in handler.records] == ["symcalc.cache"] * 3
    messages = [r.getMessage() for r in handler.records]
    assert all(m.endswith("; recomputing") for m in messages)
    assert "unreadable" in messages[0]
    assert "wrong version" in messages[1]
    assert "failed checksum" in messages[2]


def test_unusable_cache_dir_warning_keeps_its_text(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache = str(blocker / "cache")
    proc = subprocess.run([sys.executable, "-m", "symcalc.cli", "--cache",
                           cache, "eval", "s[2]"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "s[2]\n")
    assert proc.stderr.startswith("WARNING symcalc.cache: cache directory "
                                  "unusable (")
    assert proc.stderr.endswith(f"{cache!r}); using memory only\n")
    assert proc.stderr.count("\n") == 1


# -- lean processes: sha256 without OpenSSL, stable only where it is used ----


def test_a_cached_tables_process_never_loads_hashlib(tmp_path):
    cache = str(tmp_path / "cache")
    argv = ["--cache", cache, "tables", "--section", "h-on-tilde-h",
            "--max-degree", "3"]
    for _ in ("cold", "warm"):
        loaded = _loaded(_cli(argv))
        assert "symcalc.cache" in loaded
        assert not loaded & {"hashlib", "_hashlib"}
    assert os.listdir(cache)


def test_stored_checksum_is_the_hashlib_sha256_of_the_payload(tmp_path):
    import hashlib
    cache = str(tmp_path / "cache")
    proc = subprocess.run([sys.executable, "-m", "symcalc.cli", "--cache",
                           cache, "tables", "--section", "perm-chars",
                           "--max-degree", "4"], capture_output=True)
    assert proc.returncode == 0 and proc.stderr == b""
    names = sorted(os.listdir(cache))
    assert names
    for name in names:
        with open(os.path.join(cache, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        text = json.dumps(doc["payload"], sort_keys=True)
        assert doc["sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_checksum_falls_back_to_hashlib(monkeypatch):
    import hashlib
    from symcalc import cache
    text = json.dumps({"⟨h2⟩": ["1", "1"]}, sort_keys=True)
    want = hashlib.sha256(text.encode("utf-8")).hexdigest()
    monkeypatch.setattr(cache, "_new_sha256", None)
    assert cache._checksum(text) == want
    assert cache._new_sha256.__module__ in ("_sha256", "_sha2")
    # an import of a module set to None in sys.modules raises ImportError
    for builtin in ("_sha256", "_sha2"):
        monkeypatch.setitem(sys.modules, builtin, None)
    monkeypatch.setattr(cache, "_new_sha256", None)
    assert cache._checksum(text) == want
    assert cache._new_sha256 is hashlib.sha256


@pytest.mark.parametrize("argv", [
    ["eval", "1"], ["eval", "s[2,1] # s[2,1]"], ["braid", "--n", "3"],
    ["endofunctions", "--n", "3"]])
def test_commands_without_stable_objects_skip_stable(argv):
    loaded = _loaded(_cli(argv))
    assert "symcalc.render" in loaded
    assert "symcalc.stable" not in loaded


def test_cli_names_the_table_sections_in_order():
    from symcalc import cli, tables
    assert cli.SECTIONS == tables.SECTIONS


# Runs commands under ``python -S`` (no site hooks, which load ``typing``
# on some installs) and prints which of two modules they loaded.
BARE = """import sys
sys.path.insert(0, {root!r})
from symcalc.cli import main
assert main(["eval", "1"]) == 0 and main(["braid", "--n", "3"]) == 0
print(sorted({{"typing", "symcalc.tables"}} & set(sys.modules)))
"""


def test_eval_and_braid_load_neither_typing_nor_tables():
    root = os.path.dirname(os.path.dirname(symcalc.__file__))
    env = dict(os.environ)
    env.pop("SYMCALC_CACHE", None)
    proc = subprocess.run([sys.executable, "-S", "-c", BARE.format(root=root)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_an_internal_product_skips_alphabets():
    loaded = _loaded(_cli(["eval", "s[2]#s[2]"]))
    assert "symcalc.expr" in loaded
    assert not loaded & {"symcalc.stable", "symcalc.alphabets",
                         "symcalc.innerpleth"}


# -- malformed cache entries are recomputed, not fatal -----------------------


def _answers(cache):
    return sorted(n for n in os.listdir(cache) if n.startswith("answer-"))


def _drop_answers(cache):
    for name in _answers(cache):
        os.remove(os.path.join(cache, name))


@pytest.mark.parametrize("content", [b"[1]", b"null", b"\xff\xfe"])
def test_malformed_entry_is_one_warning_and_a_recompute(content, tmp_path):
    cache = str(tmp_path / "cache")
    argv = [sys.executable, "-m", "symcalc.cli", "--cache", cache, "tables",
            "--section", "h-on-tilde-h", "--max-degree", "3"]
    want = subprocess.run(argv[:3] + argv[5:], capture_output=True)
    assert want.returncode == 0 and want.stderr == b""
    assert subprocess.run(argv, capture_output=True).returncode == 0
    path = os.path.join(cache, "plethH-2.json")
    assert os.path.exists(path)
    with open(path, "wb") as fh:
        fh.write(content)
    _drop_answers(cache)   # so that the rerun reads plethH-2.json
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, want.stdout.decode())
    assert proc.stderr.startswith("WARNING symcalc.cache: cache entry ")
    assert proc.stderr.count("\n") == 1
    assert "plethH-2.json unreadable (" in proc.stderr
    assert proc.stderr.endswith("); recomputing\n")
    # the recomputed entry was stored again, and reads back silently
    _drop_answers(cache)
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, want.stdout.decode(), "")


@pytest.mark.parametrize("content, reason", [
    (b"[1]", "not a JSON object"), (b"\xff\xfe", "can't decode byte")])
def test_get_rejects_a_malformed_entry_on_the_cache_logger(content, reason,
                                                           tmp_path):
    cache = PersistentCache(tmp_path)
    cache.put("kind", "key", {"value": 1})
    with open(cache._path("kind", "key"), "wb") as fh:
        fh.write(content)
    handler = _Records()
    logger = logging.getLogger("symcalc.cache")
    logger.addHandler(handler)
    try:
        assert cache.get("kind", "key") is None
    finally:
        logger.removeHandler(handler)
    assert [r.name for r in handler.records] == ["symcalc.cache"]
    message = handler.records[0].getMessage()
    assert "unreadable (" in message and reason in message
    assert message.endswith("; recomputing")


# -- reads checksum the payload text as stored -------------------------------

PARENT_CACHE = os.path.join(os.path.dirname(__file__), "data", "cache")


def _tables_with_cache(cache, section):
    argv = [sys.executable, "-m", "symcalc.cli", "--cache", str(cache),
            "tables", "--section", section, "--max-degree", "4"]
    return subprocess.run(argv, capture_output=True, text=True)


def _reference(section):
    path = os.path.join(os.path.dirname(__file__), "data", "tables",
                        f"{section}-4.txt")
    with open(path) as fh:
        return fh.read()


def test_a_directory_written_by_an_earlier_version_reads_back(tmp_path):
    # data/cache holds the plethH/plethM files of degrees 1-4 as the
    # earlier reader (decode, re-encode, checksum) wrote and accepted them
    cache = tmp_path / "cache"
    shutil.copytree(PARENT_CACHE, cache)
    before = {p.name: p.read_bytes() for p in cache.iterdir()}
    reader = PersistentCache(cache)
    for name, data in before.items():
        kind, key = name[:-len(".json")].split("-")
        assert reader.get(kind, key) == json.loads(data)["payload"]
    for section in ("perm-chars", "h-on-tilde-h"):
        proc = _tables_with_cache(cache, section)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, _reference(section), "")
    # the only new files are the two commands' stored answers
    answers = _answers(cache)
    assert len(answers) == 2
    assert {p.name: p.read_bytes() for p in cache.iterdir()
            if p.name not in answers} == before


def test_a_payload_with_changed_whitespace_is_recomputed(tmp_path):
    cache = tmp_path / "cache"
    shutil.copytree(PARENT_CACHE, cache)
    path = cache / "plethM-2.json"
    stored = path.read_bytes()
    edited = stored.replace(b'{"payload": {"1,1": {', b'{"payload": {"1,1":{')
    assert edited != stored and json.loads(edited) == json.loads(stored)
    path.write_bytes(edited)
    proc = _tables_with_cache(cache, "perm-chars")
    assert (proc.returncode, proc.stdout) == (0, _reference("perm-chars"))
    assert proc.stderr == (f"WARNING symcalc.cache: cache entry {path} "
                           f"failed checksum; recomputing\n")
    assert path.read_bytes() == stored
