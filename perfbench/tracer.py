"""Tracing of orbfree from outside the program: wraps the public functions
and methods of each layer module in place, in the worker process.

Coarse functions get one span per call (name, start, end, parent span,
trace id = step).  Hot leaves, called up to ~4e5 times per step, get only
a call count and summed time.  Every wrapper takes part in self-time
accounting: a module's self time is the time during which the innermost
active wrapped call belongs to that module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "poly", "matrices", "moments", "gibbs", "pressure", "sdsolver")

# aggregated only: a per-call span for these would dominate memory and
# time.  The first seven are the named hot leaves; the rest were measured
# at more than 1e4 calls in one step of some workload.
HOT = frozenset({
    "moments.canonical_word",
    "matrices.trace_word",
    "matrices.trace_evaluate",
    "gibbs.energy",
    "matrices.MatrixTuple.lookup",
    "poly.QC.__complex__",
    "poly.NCPoly.__add__",
    "matrices.evaluate_word",
    "matrices.MatrixTuple.conjugated",
    "matrices.MatrixTuple.with_unitaries",
    "matrices.SpectralMeasure.quantile",
    "matrices.gue",
    "matrices.spectral_reflect",
    "poly.word_sort_key",
    "poly.adjoint_letter",
    "poly.adjoint_word",
    "poly.reduce_word",
})

# dunder methods wrapped besides the public ones
DUNDERS = {("poly", "QC"): ("__complex__",), ("poly", "NCPoly"): ("__add__",)}


def _targets(mod):
    """(qualified name, owner, attribute, original, is_static) for every
    public function and method defined in the module."""
    short = mod.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", mod, name, obj, False
        elif inspect.isclass(obj):
            extra = DUNDERS.get((short, name), ())
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_") and attr not in extra:
                    continue
                if isinstance(member, staticmethod):
                    yield f"{short}.{name}.{attr}", obj, attr, member.__func__, True
                elif inspect.isfunction(member):
                    yield f"{short}.{name}.{attr}", obj, attr, member, False


def _orbfree_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "orbfree" or name.startswith("orbfree.")]


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.trace_id = None
        self.stack = []  # frames: [child time, span id that children report as parent]
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.depth = defaultdict(int)
        self.spans = []
        self.counters = defaultdict(int)
        self.wrapped = {}  # id(original) -> wrapper
        self.originals = {}  # qualified name -> original

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        tracer = self
        module = qualname.split(".", 1)[0]
        hot = qualname in HOT
        post = POST_HOOKS.get(qualname)
        perf = time.perf_counter
        stack, calls, seconds = self.stack, self.calls, self.seconds
        self_seconds, depth, spans = self.self_seconds, self.depth, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            span = None
            if not hot:
                span = len(spans)
                spans.append(None)
            frame = [0.0, span if span is not None else parent_span]
            stack.append(frame)
            depth[qualname] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                d = t1 - t0
                stack.pop()
                depth[qualname] -= 1
                calls[qualname] += 1
                if depth[qualname] == 0:  # count recursion once
                    seconds[qualname] += d
                self_seconds[module] += d - frame[0]
                if parent is not None:
                    parent[0] += d
                if span is not None:
                    spans[span] = (qualname, t0 - tracer.origin, t1 - tracer.origin,
                                   parent_span, tracer.trace_id)
            if post is not None:
                post(tracer.counters, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules, then
        rebind every by-name import of them in any orbfree namespace."""
        mods = [importlib.import_module(f"orbfree.{name}") for name in LAYERS]
        for mod in mods:
            for qualname, owner, attr, fn, static in list(_targets(mod)):
                wrapper = self._wrap(qualname, fn)
                setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
                self.wrapped[id(fn)] = wrapper
                self.originals[qualname] = fn
        for mod in _orbfree_modules():
            for key, value in list(vars(mod).items()):
                if id(value) in self.wrapped:
                    setattr(mod, key, self.wrapped[id(value)])
                elif isinstance(value, dict):  # module-level dispatch tables
                    for k, v in list(value.items()):
                        if id(v) in self.wrapped:
                            value[k] = self.wrapped[id(v)]

    def unwrapped_bindings(self) -> list[str]:
        """Every place in an orbfree namespace that still holds an original
        of a wrapped function (empty after a complete install)."""
        originals = {id(fn) for fn in self.originals.values()}
        found = []
        for mod in _orbfree_modules():
            name = mod.__name__
            for key, value in vars(mod).items():
                if id(value) in originals:
                    found.append(f"{name}.{key}")
                elif isinstance(value, dict):
                    found += [f"{name}.{key}[{k!r}]" for k, v in value.items()
                              if id(v) in originals]
                elif inspect.isclass(value) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        fn = member.__func__ if isinstance(member, staticmethod) else member
                        if id(fn) in originals:
                            found.append(f"{name}.{key}.{attr}")
        return found

    # -- results ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for k, (name, start, end, parent, trace_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "trace": trace_id}) + "\n")


def _after_run(counters, chain):
    counters["gibbs.proposals"] += chain.proposed
    counters["gibbs.accepted"] += chain.accepted


def _after_sd_solve(counters, result):
    counters["sdsolver.sd_iterations"] += result[1].iterations


def _after_eta(counters, est):
    counters["pressure.eta_objective_evals"] += len(est.trace)


POST_HOOKS = {
    "gibbs.run": _after_run,
    "sdsolver.sd_solve": _after_sd_solve,
    "pressure.eta_estimate": _after_eta,
}
