"""Tracing of symcalc from outside the package.

``Tracer.install()`` wraps the public functions of every symcalc layer
module, plus a few methods, without editing the package:

* a module-level function is rebound in every ``symcalc.*`` namespace
  that holds the same object, because ``from .symfunc import multiply``
  copies the binding into the importing module;
* methods (``SymExpr.in_basis``, ``SymExpr.truncate``,
  ``PersistentCache.get/put``) are patched on their class;
* recursive memoized functions (``char_value``, ``tilde_h``) count every
  call, memo hits included, but record a span only for the outermost call;
* leaf helpers called from inner loops are counted but get no span (see
  ``COUNT_ONLY``), which keeps the span list and the overhead bounded.

Spans ``(name, start, end, parent, operation id)`` are kept in memory and
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import os
import sys
import time
import types

LAYERS = ("partitions", "symfunc", "coeffs", "innerpleth", "alphabets",
          "stable", "tables", "apps", "cache", "expr", "render", "cli")

# Called once per term in the inner loops of the kernels.  A span on each
# would cost more than the work it measures.
COUNT_ONLY = {"partitions.partition", "partitions.z_value",
              "partitions.multiplicities", "partitions.canonical_key",
              "partitions.conjugate", "partitions.power_cycle_type",
              "partitions.sort_to_partition", "partitions.contains",
              "coeffs.as_fraction", "coeffs.coeff_frobenius",
              "coeffs.coeff_subs", "coeffs.coeff_is_zero",
              "coeffs.coeff_to_json", "coeffs.coeff_from_json",
              "coeffs.fraction_to_json", "coeffs.fraction_from_json",
              "render.term_sort_key"}

# Recursive through their own module-level name: span the outermost call.
OUTERMOST_ONLY = {"symfunc.char_value", "stable.tilde_h"}

# Runs the caller's compute callback; a span here would charge the
# caller's work to the cache layer.  Cache time is measured on
# PersistentCache.get/put instead.
UNWRAPPED = {"cache.cached_table"}


class _RejectCounter(logging.Handler):
    """Counts cache entries the cache layer refused to serve."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "recomputing" in record.getMessage():
            self.count += 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.truncate_in = 0
        self.truncate_out = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.bytes_written = 0
        self.rejects = _RejectCounter()
        self.memos: list = []
        self._restore: list = []

    # -- wrapping --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def _spanned(self, nid: int, fn):
        calls, spans, stack = self.calls, self.spans, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tracer.op)
        return wrapper

    def _counted(self, nid: int, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _outermost(self, nid: int, fn):
        calls = self.calls
        spanned = self._spanned(nid, fn)
        active = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                calls[nid] += 1
                return fn(*args, **kwargs)
            active[0] = True
            try:
                return spanned(*args, **kwargs)
            finally:
                active[0] = False
        return wrapper

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        if name in COUNT_ONLY:
            return self._counted(nid, fn)
        if name in OUTERMOST_ONLY:
            return self._outermost(nid, fn)
        return self._spanned(nid, fn)

    def install(self) -> None:
        """Wrap every layer; symcalc must be importable."""
        mods = {name: importlib.import_module(f"symcalc.{name}")
                for name in LAYERS}
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == "symcalc"
                                            or key.startswith("symcalc."))]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (not _is_function(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if hasattr(obj, "cache_info"):
                    self.memos.append((short, obj))
                if attr.startswith("_") or f"{short}.{attr}" in UNWRAPPED:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, key, wrapped)
                            self._restore.append((ns, key, obj))
        self._patch_methods(mods)
        logging.getLogger("symcalc.cache").addHandler(self.rejects)

    def _patch_methods(self, mods) -> None:
        sym_cls = mods["symfunc"].SymExpr
        cache_cls = mods["cache"].PersistentCache
        tracer = self

        in_basis = self._wrap("symfunc.in_basis", sym_cls.in_basis)

        truncate_span = self._wrap("symfunc.truncate", sym_cls.truncate)

        def truncate(expr, cap):
            out = truncate_span(expr, cap)
            tracer.truncate_in += len(expr.terms)
            tracer.truncate_out += len(out.terms)
            return out

        get_span = self._wrap("cache.get", cache_cls.get)

        def get(cache, kind, key):
            payload = get_span(cache, kind, key)
            if payload is None:
                tracer.cache_misses += 1
            else:
                tracer.cache_hits += 1
            return payload

        put_span = self._wrap("cache.put", cache_cls.put)

        def put(cache, kind, key, payload):
            put_span(cache, kind, key, payload)
            try:
                tracer.bytes_written += os.path.getsize(cache._path(kind, key))
            except OSError:
                pass

        for cls, attr, new in ((sym_cls, "in_basis", in_basis),
                               (sym_cls, "truncate", truncate),
                               (cache_cls, "get", get),
                               (cache_cls, "put", put)):
            self._restore.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for ns, key, obj in reversed(self._restore):
            setattr(ns, key, obj)
        self._restore.clear()
        logging.getLogger("symcalc.cache").removeHandler(self.rejects)

    # -- results ---------------------------------------------------------

    def memo_stats(self) -> dict:
        """Per-module entries, hits and misses of every lru_cache found."""
        out: dict = {}
        for module, memo in self.memos:
            info = memo.cache_info()
            row = out.setdefault(module, {"entries": 0, "hits": 0,
                                          "misses": 0})
            row["entries"] += info.currsize
            row["hits"] += info.hits
            row["misses"] += info.misses
        return out

    def summary(self) -> dict:
        """Calls and self time per wrapped name, plus the layer counters."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_s = [0.0] * len(self.names)
        busy = [0.0] * len(self.names)
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            nid, start, end, _, _ = span
            self_s[nid] += (end - start) - child[idx]
            busy[nid] += end - start
        funcs = {}
        for nid, name in enumerate(self.names):
            row = funcs.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "busy_s": 0.0})
            row["calls"] += self.calls[nid]
            row["self_s"] += self_s[nid]
            row["busy_s"] += busy[nid]
        return {"functions": funcs,
                "truncate_in": self.truncate_in,
                "truncate_out": self.truncate_out,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "bytes_written": self.bytes_written,
                "cache_rejects": self.rejects.count,
                "memo": self.memo_stats()}

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                nid, start, end, parent, op = span
                fh.write(json.dumps([self.names[nid], start, end, parent, op])
                         + "\n")


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
