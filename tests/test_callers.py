"""Every function, class and method under ``src/symcalc`` is reachable.

A definition is reached when its name is used as an identifier (a name or
an attribute) in module-level code, or in the body of a definition that is
itself reached; ``symcalc.__all__`` and ``cli.main`` are reached from the
start, and so are the dunders of a module or of a reached class, which
Python calls for it.  A definition whose only callers are unreached, or
that only a string or a comment mentions, has no caller.  Helpers that
only the tests use live in ``tests/oracles.py`` instead.
"""

import ast
import os

import symcalc

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "symcalc")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


class _Scope(ast.NodeVisitor):
    """The identifiers a block of code uses and the definitions it holds.

    Decorators, defaults and bases of a definition run in the enclosing
    block, so they count as its code; the body of the definition does not.
    """

    def __init__(self, body):
        self.names, self.defs = set(), []
        for node in body:
            self.visit(node)

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        self.defs.append(node)
        args = node.args
        for child in [*node.decorator_list, *args.defaults,
                      *filter(None, args.kw_defaults)]:
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self.defs.append(node)
        for child in [*node.decorator_list, *node.bases, *node.keywords]:
            self.visit(child)


def _unreached():
    """Qualified names of the definitions under src/ that are not reached."""
    by_name, names, seen = {}, {*symcalc.__all__, "main"}, set()
    pending = []   # (qualified name, definition) reached, body not yet read

    def add(scope, prefix, reached):
        for node in scope.defs:
            qual = f"{prefix}.{node.name}"
            by_name.setdefault(node.name, []).append((qual, node))
            if node.name in names or reached and _dunder(node.name):
                pending.append((qual, node))

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                module = ast.parse(fh.read())
            scope = _Scope(module.body)
            names |= scope.names
            add(scope, name[:-3], reached=True)
    pending += [d for n in sorted(names) for d in by_name.get(n, ())]
    while pending:
        qual, node = pending.pop()
        if qual in seen:
            continue
        seen.add(qual)
        scope = _Scope(node.body)
        add(scope, qual, reached=isinstance(node, ast.ClassDef))
        for name in scope.names - names:
            names.add(name)
            pending += by_name.get(name, ())
    return sorted(q for defs in by_name.values() for q, _ in defs
                  if q not in seen)


def test_every_definition_has_a_caller_or_is_exported():
    unreached = _unreached()
    assert not unreached, f"not reached from symcalc.__all__, cli.main " \
                          f"or module-level code: {unreached}"
