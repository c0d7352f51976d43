import json
import multiprocessing
import subprocess
import sys

import pytest

from symcalc.cli import main
from symcalc.expr import evaluate, parse

EXPRESSIONS = [
    "s[4,1] # s[4,1]",
    "2 * s[2,1] - 1/2 * p[2]",
    "h[2] o (s[1] + s[2])",
    "ihat(e[2], A[1])",
    "eval_n(A[2,2], 6)",
    "sp(s[2,1], h[2,1])",
    "D(p[2], h[3,1])",
    "shift(ts[2] + th[1,1], -1)",
    "-(s[2] + s[1,1]) * s[1]",
    "charpoly(s[2])",
    "A[2] # (A[1] # A[1])",
    "3/2 * tx[2,1]",
]


def render_ast(node) -> str:
    """Canonical text for an AST; parse(render_ast(x)) == x."""
    kind = node[0]
    if kind == "num":
        c = node[1]
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    if kind == "atom":
        return f"{node[1]}[{','.join(map(str, node[2]))}]"
    if kind == "neg":
        return f"-{_wrap(node[1], 3)}"
    if kind in ("add", "sub"):
        op = "+" if kind == "add" else "-"
        return f"{_wrap(node[1], 1)} {op} {_wrap(node[2], 2, right=True)}"
    if kind in ("mul", "inner"):
        op = "*" if kind == "mul" else "#"
        return f"{_wrap(node[1], 2)} {op} {_wrap(node[2], 3, right=True)}"
    if kind == "pleth":
        return f"{_wrap(node[1], 3)} o {_wrap(node[2], 4, right=True)}"
    if kind == "call":
        return f"{node[1]}({', '.join(render_ast(a) for a in node[2])})"
    raise ValueError(f"unknown node {kind!r}")


_LEVEL = {"add": 1, "sub": 1, "mul": 2, "inner": 2, "pleth": 3, "neg": 3,
          "num": 9, "atom": 9, "call": 9}


def _wrap(node, level: int, right: bool = False) -> str:
    text = render_ast(node)
    own = _LEVEL[node[0]]
    if own < level or (right and own == level and node[0] in
                       ("add", "sub", "mul", "inner", "pleth")):
        return f"({text})"
    return text


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_parse_render_fixed_point(text):
    ast = parse(text)
    rendered = render_ast(ast)
    assert parse(rendered) == ast
    assert render_ast(parse(rendered)) == rendered


def run_cli(args, env_extra=None, capsys=None):
    import io
    import contextlib
    import os
    buf_out, buf_err = io.StringIO(), io.StringIO()
    saved = dict(os.environ)
    if env_extra:
        os.environ.update(env_extra)
    try:
        with contextlib.redirect_stdout(buf_out), \
                contextlib.redirect_stderr(buf_err):
            code = main(args)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return code, buf_out.getvalue(), buf_err.getvalue()


def test_eval_exit_codes():
    assert run_cli(["eval", "s[2]"])[0] == 0
    assert run_cli(["eval", "s[1,2]"])[0] == 2
    assert run_cli(["eval", "s[2] +"])[0] == 2
    assert run_cli(["eval", "A[1] * A[1]"])[0] == 3
    assert run_cli(["eval", "eval_n(s[2], 3)"])[0] == 3


def test_eval_output():
    code, out, _ = run_cli(["eval", "s[4,1] # s[4,1]"])
    assert code == 0
    assert out.strip() == "s[5] + s[4,1] + s[3,2] + s[3,1,1]"
    code, out, _ = run_cli(["eval", "s[2,1]", "--basis", "h"])
    assert out.strip() == "-h[3] + h[2,1]"
    code, out, _ = run_cli(["eval", "s[2]", "--format", "json"])
    data = json.loads(out)
    assert data["terms"] == [{"part": [2], "coeff": "1"}] or \
        data["terms"][0]["part"] == [2]


def test_eval_of_a_leading_minus_goes_after_double_dash():
    assert run_cli(["eval", "--", "-s[1]"]) == (0, "-s[1]\n", "")


def test_eval_latex():
    code, out, _ = run_cli(["eval", "s[2,1] + s[3]", "--format", "latex"])
    assert code == 0
    assert "s_{" in out


def test_determinism():
    for args in (["eval", "A[1] # A[1]"],
                 ["tables", "--section", "perm-chars", "--max-degree", "3"],
                 ["braid", "--n", "3"],
                 ["charpoly", "--lambda", "2,2"],
                 ["endofunctions", "--n", "4"],
                 ["reduced-kron", "--lambda", "2,1", "--mu", "1,1"]):
        a = run_cli(list(args))
        b = run_cli(list(args))
        assert a == b and a[0] == 0, args


def test_tables_cold_vs_warm_cache(tmp_path):
    # subprocesses: in-process memoization would otherwise bypass the disk
    cache = str(tmp_path / "cache")
    argv = [sys.executable, "-m", "symcalc.cli", "--cache", cache, "tables",
            "--section", "inner-plethysm", "--max-degree", "4"]
    cold = subprocess.run(argv, capture_output=True, text=True)
    warm = subprocess.run(argv, capture_output=True, text=True)
    assert cold.returncode == warm.returncode == 0
    assert cold.stdout == warm.stdout
    # files were actually written
    import os
    assert any(f.endswith(".json") for f in os.listdir(cache))


def test_cache_env_var(tmp_path):
    cache = str(tmp_path / "envcache")
    code, out, _ = run_cli(["eval", "ihat(h[2], A[1])"],
                           env_extra={"SYMCALC_CACHE": cache})
    assert code == 0
    import os
    assert os.path.isdir(cache)


def test_cache_corruption_recovers(tmp_path):
    import os
    cache = str(tmp_path / "cache")
    argv = [sys.executable, "-m", "symcalc.cli", "--cache", cache, "tables",
            "--section", "h-on-tilde-h", "--max-degree", "3"]
    first = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0
    # corrupt every cache file
    assert os.listdir(cache)
    for name in os.listdir(cache):
        with open(os.path.join(cache, name), "w") as fh:
            fh.write("{ corrupted")
    second = subprocess.run(argv, capture_output=True, text=True)
    assert second.returncode == 0
    assert second.stdout == first.stdout
    assert "WARNING" in second.stderr and "cache" in second.stderr


def _reader(cache, q):
    from symcalc.cli import main as cli_main
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["--cache", cache, "tables", "--section",
                         "perm-chars", "--max-degree", "4"])
    q.put((code, buf.getvalue()))


def test_concurrent_readers(tmp_path):
    cache = str(tmp_path / "cache")
    # warm the cache once
    warm = run_cli(["--cache", cache, "tables", "--section", "perm-chars",
                    "--max-degree", "4"])
    ctx = multiprocessing.get_context("spawn")
    q = ctx.Queue()
    procs = [ctx.Process(target=_reader, args=(cache, q)) for _ in range(3)]
    for p in procs:
        p.start()
    results = [q.get(timeout=60) for _ in procs]
    for p in procs:
        p.join()
    for code, out in results:
        assert code == 0
        assert out == warm[1]


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "symcalc.cli", "eval",
                           "s[2] # s[2]"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "s[2]" in proc.stdout


def test_tables_match_reference_files():
    import os
    here = os.path.dirname(__file__)
    for sec, k in [("inner-plethysm", 4), ("perm-chars", 4),
                   ("tilde-s-dual", 5), ("schur-on-tilde-s", 4),
                   ("tilde-h-dual", 5), ("h-on-tilde-h", 4)]:
        ref = os.path.join(here, "data", "tables", f"{sec}-{k}.txt")
        with open(ref) as fh:
            expected = fh.read()
        code, out, _ = run_cli(["tables", "--section", sec,
                                "--max-degree", str(k)])
        assert code == 0
        assert out == expected, sec


def test_eval_cap_is_respected():
    code, out, _ = run_cli(["eval", "s[1] o s[1]", "--cap", "0"])
    assert code == 0
    assert out.strip() == "0"


def test_unknown_section():
    code, _, err = run_cli(["tables", "--section", "h-on-tilde-h",
                            "--max-degree", "0"])
    assert code == 3


def test_eval_prints_high_degree_in_full():
    code, out, err = run_cli(["eval", "s[7] * s[6]"])
    assert code == 0
    assert out.strip() == ("s[13] + s[12,1] + s[11,2] + s[10,3] + s[9,4] "
                           "+ s[8,5] + s[7,6]")
    assert err == ""


def test_eval_cap_warns_when_terms_dropped():
    code, out, err = run_cli(["eval", "s[7] * s[6]", "--cap", "12"])
    assert code == 0
    assert out.strip() == "0"
    assert "--cap 12" in err and "dropped" in err
    code, out, err = run_cli(["eval", "s[7] * s[6]", "--cap", "13"])
    assert code == 0 and "s[13]" in out and err == ""


def test_cold_run_writes_no_m2p_table(tmp_path):
    import os
    cache = str(tmp_path / "cache")
    argv = [sys.executable, "-m", "symcalc.cli", "--cache", cache, "tables",
            "--section", "h-on-tilde-h", "--max-degree", "4"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0
    assert os.listdir(cache)
    assert not [f for f in os.listdir(cache) if f.startswith("m2p-")]


def test_stale_m2p_table_is_not_read(tmp_path):
    # a well-formed (right version and checksum) but wrong m -> p table
    import hashlib
    import os
    from symcalc.cache import FORMAT_VERSION
    from symcalc.partitions import partitions_of
    cache = tmp_path / "cache"
    cache.mkdir()
    payload = {",".join(map(str, lam)): {",".join(map(str, lam)): ["1", "1"]}
               for lam in partitions_of(4)}
    text = json.dumps(payload, sort_keys=True)
    doc = {"version": FORMAT_VERSION, "payload": payload,
           "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    (cache / "m2p-4.json").write_text(json.dumps(doc, sort_keys=True))
    argv = [sys.executable, "-m", "symcalc.cli", "--cache", str(cache),
            "tables", "--section", "h-on-tilde-h", "--max-degree", "4"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0
    ref = os.path.join(os.path.dirname(__file__), "data", "tables",
                       "h-on-tilde-h-4.txt")
    with open(ref) as fh:
        assert proc.stdout == fh.read()


def test_eval_zero_denominator_is_a_parse_error():
    code, out, err = run_cli(["eval", "1/0"])
    assert code == 2 and out == ""
    assert "zero denominator" in err and "Traceback" not in err
    proc = subprocess.run([sys.executable, "-m", "symcalc.cli", "eval",
                           "s[2] + 3/0 * s[1]"], capture_output=True,
                          text=True)
    assert proc.returncode == 2
    assert "zero denominator" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_stale_cmatrix_entries_are_not_read(tmp_path):
    # well-formed (right version and checksum) but wrong per-entry
    # c-matrix values, in the file layout of an older cache
    import hashlib
    import os
    from symcalc.cache import FORMAT_VERSION
    from symcalc.coeffs import coeff_to_json
    cache = tmp_path / "cache"
    cache.mkdir()
    planted = []
    for lam, mu in [((2, 1), (1,)), ((2, 2), (2,)), ((3, 1), (1, 1))]:
        payload = {"value": coeff_to_json(99)}
        text = json.dumps(payload, sort_keys=True)
        doc = {"version": FORMAT_VERSION, "payload": payload,
               "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
        name = ("cmatrix-" + "-".join(map(str, lam)) + "_"
                + "-".join(map(str, mu)) + ".json")
        (cache / name).write_text(json.dumps(doc, sort_keys=True))
        planted.append(name)
    argv = [sys.executable, "-m", "symcalc.cli", "--cache", str(cache),
            "tables", "--section", "inner-plethysm", "--max-degree", "4"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0
    ref = os.path.join(os.path.dirname(__file__), "data", "tables",
                       "inner-plethysm-4.txt")
    with open(ref) as fh:
        assert proc.stdout == fh.read()
    assert sorted(f for f in os.listdir(cache)
                  if f.startswith("cmatrix-")) == sorted(planted)


def test_cache_dir_does_not_leak_into_later_calls(tmp_path, monkeypatch):
    # an in-process main() without --cache must not keep using the
    # directory an earlier call installed
    import os
    from symcalc.cache import set_cache_dir
    from symcalc.stable import _pleth_columns
    monkeypatch.delenv("SYMCALC_CACHE", raising=False)
    cache = str(tmp_path / "cache")
    try:
        code, out, _ = run_cli(["--cache", cache, "eval", "th[2]"])
        assert code == 0 and out.strip()
        before = sorted(os.listdir(cache))
        _pleth_columns.cache_clear()   # force the next call to need a table
        code, out, _ = run_cli(["eval", "th[3,1]"])
        assert code == 0 and out.strip()
        assert sorted(os.listdir(cache)) == before
    finally:
        set_cache_dir(None)


@pytest.mark.parametrize("command, target, exc", [
    (["reduced-kron", "--lambda", "2,1", "--mu", "1"], "reduced_kron",
     ArithmeticError("non-integer coefficient")),
    (["reduced-kron", "--lambda", "2", "--mu", "1"], "reduced_kron",
     ValueError("size mismatch")),
    (["charpoly", "--lambda", "2,1"], "character_polynomial",
     ZeroDivisionError("division by zero")),
    (["charpoly", "--lambda", "2"], "character_polynomial",
     ValueError("bad class value")),
    (["tables", "--section", "perm-chars", "--max-degree", "3"],
     "render_table", ArithmeticError("non-integer entry")),
])
def test_library_errors_exit_3_without_traceback(command, target, exc,
                                                 monkeypatch):
    # the CLI imports a command's computation from its module when the
    # command runs, so it is patched there
    home = {"reduced_kron": "stable", "character_polynomial": "stable",
            "render_table": "tables"}[target]

    def fail(*args):
        raise exc
    monkeypatch.setattr(f"symcalc.{home}.{target}", fail)
    code, out, err = run_cli(command)
    assert code == 3
    assert err == f"evaluation error: {exc}\n"
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("command", [["braid", "--n", "0"],
                                     ["endofunctions", "--n", "0"]])
def test_nonpositive_n_exits_3(command):
    assert run_cli(command) == (3, "", "evaluation error: n must be "
                                       "positive\n")


@pytest.mark.parametrize("cap", ["-1", "-13", "x"])
def test_eval_bad_cap_is_a_usage_error(cap, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "s[2] * s[1]", "--cap", cap])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "--cap" in err and "Traceback" not in err


def test_reduced_kron_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduced-kron", "--lambda", "2", "--mu", "1", "--format",
              "json"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "--format" in err and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "charpoly(s[1]) * 2",
    "charpoly(s[1]) + charpoly(s[1])",
    "s[1] + charpoly(s[1])",
    "-charpoly(s[1])",
    "A[1] + charpoly(s[1])",
    "2 - charpoly(s[2])",
])
def test_arithmetic_on_a_character_polynomial_exits_3(text):
    code, out, err = run_cli(["eval", "--", text])
    assert (code, out) == (3, "")
    assert err == ("evaluation error: character polynomials take no "
                   "'+', '-' or '*'\n")
