"""Every import under src/symcalc/ is used."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "symcalc"
# a package __init__ imports to re-export: its imports are the public API
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """{bound name: line} of every import, __future__ excluded."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(source: str) -> dict:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return {name: line for name, line in _imported(tree).items()
            if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused(path.read_text()) == {}, path.name


def test_the_guard_sees_an_unused_import():
    source = ("from fractions import Fraction\nimport json\n"
              "from os import path as osp\njson.dumps(1)\n"
              "__all__ = ['osp']\n")
    assert _unused(source) == {"Fraction": 1}
