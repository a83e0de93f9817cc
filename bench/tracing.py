"""Per-layer tracing installed from outside the package.

The layers are the modules of ``polyadic``.  ``install`` replaces every name
one module imports from another with a wrapper that records a span for the
callee's layer, and wraps ``cli.main`` as the root span of each op.  Classes
are left alone (modules test ``isinstance`` against them), so their methods
run inside the caller's span; generator functions return a proxy whose every
resume is a span.  Besides spans it counts ``DimTable.dim`` calls, table
entries materialized by ``DimTable.extend``, curves built by
``fluctuation_curve`` and grid nodes from ``_grid_numerators``.

A span's self time is its duration minus that of its child spans, so the
layers' self times add up to the root spans' durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("cli", "poly", "paths", "measure", "ergodic", "takagi")


class Tracer:
    def __init__(self):
        self.stack = []           # [child_time] accumulators of open spans
        self.ids = []             # span ids of open spans
        self.spans = []           # (id, name, layer, start, end, parent, op)
        self.keep_spans = True
        self.op = None
        self.next_id = 0
        self.counts = Counter()   # updated in place by the counting hooks
        self.reset()

    def reset(self):
        """Start the per-op accumulators."""
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = Counter()
        self.counts.clear()

    def call(self, fn, layer, name, args, kwargs):
        parent = self.ids[-1] if self.ids else None
        sid = self.next_id
        self.next_id += 1
        acc = [0.0]
        self.stack.append(acc)
        self.ids.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.ids.pop()
            dur = end - start
            self.self_s[layer] += dur - acc[0]
            self.calls[layer] += 1
            if self.stack:
                self.stack[-1][0] += dur
            if self.keep_spans:
                self.spans.append((sid, name, layer, start, end, parent, self.op))


class _TracedIterator:
    def __init__(self, tracer, it, layer, name):
        self._tracer, self._it, self._layer, self._name = tracer, it, layer, name

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call(next, self._layer, self._name, (self._it,), {})


def _span_wrapper(tracer, fn, layer):
    name = f"{layer}.{fn.__name__}"
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TracedIterator(tracer, fn(*args, **kwargs), layer, name)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(fn, layer, name, args, kwargs)
    return wrapper


def _layer_of(obj):
    mod = getattr(obj, "__module__", None) or ""
    head, _, tail = mod.partition(".")
    return tail if head == "polyadic" and tail in LAYERS else None


def install(tracer: Tracer) -> None:
    modules = {name: importlib.import_module(f"polyadic.{name}") for name in LAYERS}
    wrappers = {}
    for name, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            layer = _layer_of(obj)
            if (layer is None or layer == name or isinstance(obj, type)
                    or not callable(obj)):
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = _span_wrapper(tracer, obj, layer)
            setattr(mod, attr, wrappers[id(obj)])
    cli = modules["cli"]
    cli.main = _span_wrapper(tracer, cli.main, "cli")

    DimTable = modules["poly"].DimTable
    dim, extend = DimTable.dim, DimTable.extend
    counts = tracer.counts

    def counted_dim(self, n, k):
        counts["poly.dim_calls"] += 1
        return dim(self, n, k)

    def counted_extend(self, n_max):
        before = self.n_max
        extend(self, n_max)
        d = self.poly.degree
        counts["poly.entries_built"] += sum(
            n * d + 1 for n in range(before + 1, self.n_max + 1))

    DimTable.dim = counted_dim
    DimTable.extend = counted_extend

    ergodic = modules["ergodic"]
    fluct = ergodic.fluctuation_curve

    def counted_curve(*args, **kwargs):
        counts["ergodic.curves_built"] += 1
        return fluct(*args, **kwargs)

    ergodic.fluctuation_curve = counted_curve
    numerators = getattr(ergodic, "_grid_numerators", None)
    if numerators is not None:
        def counted_numerators(*args, **kwargs):
            H, nodes = numerators(*args, **kwargs)
            counts["ergodic.nodes"] += len(nodes)
            return H, nodes

        ergodic._grid_numerators = counted_numerators
