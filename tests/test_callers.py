"""Every function, class and method under ``src/symcalc`` has a caller.

A name passes when it appears as an identifier (a ``tokenize.NAME``
token) somewhere in ``src/`` outside its own definition, or when
``symcalc`` exports it; a mention in a string or a comment is no caller.
Helpers that only the tests use live in ``tests/oracles.py`` instead.
"""

import ast
import io
import os
import tokenize

import symcalc

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "symcalc")


def _sources():
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                out[name[:-3]] = fh.read()
    return out


def _identifiers(sources):
    """name -> [(module, line)] of each identifier token in the sources."""
    out = {}
    for module, text in sources.items():
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                out.setdefault(tok.string, []).append((module, tok.start[0]))
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
    uses = _identifiers(sources)
    for module, text in sources.items():
        for qual, name, first, last in _definitions(module, text):
            if name in exported:
                continue
            if not any(m != module or not first <= line <= last
                       for m, line in uses.get(name, ())):
                orphans.append(qual)
    assert not orphans, f"no caller in src/ and not exported: {orphans}"
