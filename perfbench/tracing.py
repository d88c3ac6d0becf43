"""Outside-in tracing of dbcat: spans around each module's public functions.

A :class:`Tracer` replaces the listed functions in every ``dbcat`` module
namespace that binds them, so calls made inside the package are seen too.
Each call becomes one span ``(name, module, start, end, parent, op)``; spans
stay in memory until the run ends.  Per-call observers add the counts that
the per-layer metrics need (tuples in and out, views produced, cache hits).
"""
from __future__ import annotations

import importlib
import os
import sys
import time
import weakref

from workloads import component_domains

FUNCTIONS = {
    "core": ("make_instance", "disjoint_union", "federate"),
    "queries": ("eval_rule", "eval_spjru", "rule_to_spjru"),
    "constraints": ("check_tgd", "check_egd", "find_sentence_violation"),
    "powerview": (
        "power_view",
        "power_view_cached",
        "instances_isomorphic",
        "matching",
        "merging",
    ),
    "category": ("make_atomic", "compose", "flux", "equivalent", "verify_duality"),
    "schemas": ("build_sketch",),
    "interpret": ("interpret_term", "check_model", "check_functor", "check_gamma_iso"),
    "dsl": ("parse_workspace",),
    "cli": ("run",),
}
MODULES = tuple(FUNCTIONS)

METHODS = {"powerview": ("ViewSet", "canonical"), "category": ("Flux", "canonical")}

# Functions that return a stored object on a cache hit and a new one on a miss.
CACHED = ("power_view_cached", "flux", "interpret_term")

# Span tuple fields.
NAME, MODULE, START, END, PARENT, OP = range(6)


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of it that the
    spans naming it as parent cover (overlapping children count once)."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def _arg(args, kwargs, pos, name, default):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    """Records spans and per-layer counts for the calls it wraps."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self.paused = 0
        self.counts: dict = {}
        # (largest component domain, depth, max_arity, seconds) per power_view call
        self.powerview_calls: list = []
        self._stack: list = []
        self._returned: dict = {}
        self._originals: list = []

    def count(self, key: str, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def install(self):
        """Wrap every listed function in every loaded dbcat namespace."""
        homes = {m: importlib.import_module(f"dbcat.{m}") for m in MODULES}
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "dbcat" or name.startswith("dbcat."))
        ]
        for module, names in FUNCTIONS.items():
            for name in names:
                original = getattr(homes[module], name)
                wrapper = self._wrap(original, name, module)
                for ns in namespaces:
                    if ns.__dict__.get(name) is original:
                        self._originals.append((ns, name, original))
                        setattr(ns, name, wrapper)
        for module, (cls_name, meth) in METHODS.items():
            cls = getattr(homes[module], cls_name)
            original = cls.__dict__[meth]
            self._originals.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, f"{cls_name}.{meth}", module))

    def uninstall(self):
        for ns, name, original in reversed(self._originals):
            setattr(ns, name, original)
        self._originals.clear()

    def _wrap(self, fn, name, module):
        tracer = self
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "ViewBudgetExceeded" and name == "power_view":
                    tracer.count("powerview.budget_errors")
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, module, start, end, parent, tracer.op)
            if name in CACHED:
                tracer._cache_lookup(name, out)
            if observe is not None:
                observe(args, kwargs, out, end - start)
            return out

        traced.__wrapped__ = fn
        return traced

    def _cache_lookup(self, name, out):
        """A hit returns the very object an earlier call returned."""
        self.count(f"{name}.calls")
        ref = self._returned.get(id(out))
        if ref is not None and ref() is out:
            self.count(f"{name}.hits")
        else:
            self._returned[id(out)] = weakref.ref(out)

    # One observer per function whose calls feed a count.

    def _observe_eval_rule(self, args, kwargs, out, seconds):
        self.count("queries.tuples_in", sum(len(r.tuples) for r in args[1].relations))
        self.count("queries.tuples_out", len(out.tuples))

    _observe_eval_spjru = _observe_eval_rule

    def _observe_check_tgd(self, args, kwargs, out, seconds):
        self.count("constraints.violations", 0 if out else 1)

    _observe_check_egd = _observe_check_tgd

    def _observe_find_sentence_violation(self, args, kwargs, out, seconds):
        self.count("constraints.violations", 0 if out is None else 1)

    def _observe_power_view(self, args, kwargs, out, seconds):
        depth = _arg(args, kwargs, 1, "depth", 2)
        arity = _arg(args, kwargs, 2, "max_arity", 4)
        self.count("powerview.views_out", len(out))
        self.count("powerview.fixpoints", 1 if out.fixpoint else 0)
        domain = max(map(len, component_domains(args[0])), default=0)
        self.powerview_calls.append((domain, depth, arity, seconds))

    def _observe_flux(self, args, kwargs, out, seconds):
        self.count("category.channels_out", len(out.channels))

    def _observe_parse_workspace(self, args, kwargs, out, seconds):
        self.count("dsl.bytes", sum(os.path.getsize(p) for p in args[0]))

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "powerview_calls": self.powerview_calls}

    def merge(self, exported: dict, op):
        """Add another process's spans and counts, attributed to *op*."""
        base = len(self.spans)
        for name, module, start, end, parent, _ in exported["spans"]:
            self.spans.append((name, module, start, end, None if parent is None else parent + base, op))
        for key, n in exported["counts"].items():
            self.count(key, n)
        self.powerview_calls.extend(tuple(c) for c in exported["powerview_calls"])
