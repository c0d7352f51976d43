"""Every function, class and method under ``src/symcalc`` has a caller.

A name passes when it appears as a word somewhere in ``src/`` outside its
own definition, or when ``symcalc`` exports it.  Helpers that only the
tests use live in ``tests/oracles.py`` instead.
"""

import ast
import os
import re

import symcalc

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "symcalc")


def _sources():
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                out[name[:-3]] = fh.read()
    return out


def _definitions(module, text):
    """(qualified name, name, first line, last line) of each definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, kinds):
                qual = f"{prefix}.{child.name}"
                yield qual, child.name, child.lineno, child.end_lineno
                yield from walk(child, qual)
            else:
                yield from walk(child, prefix)

    return [d for d in walk(ast.parse(text), module)
            if not (d[1].startswith("__") and d[1].endswith("__"))]


def test_every_definition_has_a_caller_or_is_exported():
    sources = _sources()
    exported = set(symcalc.__all__)
    orphans = []
    for module, text in sources.items():
        lines = text.splitlines()
        others = [t for m, t in sources.items() if m != module]
        for qual, name, first, last in _definitions(module, text):
            if name in exported:
                continue
            rest = "\n".join(lines[:first - 1] + lines[last:])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(t) for t in [rest, *others]):
                orphans.append(qual)
    assert not orphans, f"no caller in src/ and not exported: {orphans}"
