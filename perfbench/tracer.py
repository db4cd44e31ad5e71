"""Span tracing of grunlab's layers, installed from outside the program.

`Tracer.install` replaces every public function of grunlab.profiles,
quadrature, bodies, bounds and search by a wrapper, in every namespace the
program looks it up from (powered_integral, for one, lives in profiles and is
also bound in bounds and bodies). `Polytope3D.section_area` is wrapped on its
class. Each call records a span (name, layer, start, end, parent, op) in
memory. Counts are taken at the same boundaries: integrand evaluations, by
wrapping the integrand handed to adaptive_simpson; samples drawn and samples
inside, from what mc_chunks yields; accepted moves, from SearchResult.trace.
`uninstall` puts the original functions back.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict

import grunlab
import grunlab.bodies
import grunlab.bounds
import grunlab.profiles
import grunlab.quadrature
import grunlab.search

LAYERS = ("profiles", "quadrature", "bodies", "bounds", "search")
_MODULES = {layer: getattr(grunlab, layer) for layer in LAYERS}
_NAMESPACES = [grunlab, *_MODULES.values()]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, op]
        self.counts = defaultdict(Counter)  # op -> counter
        self.op = None
        self._stack = []
        self._saved = []

    # -- spans -------------------------------------------------------------

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def count(self, key, n=1):
        self.counts[self.op][key] += n

    def begin_op(self, op):
        self.op = op
        return self.open("op", "op")

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, layer):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return traced

    def _wrap_quadrature(self, fn):
        tracer = self

        def traced(f, *args, **kwargs):
            def counted(t):
                tracer.count("quadrature.evals")
                return f(t)
            tracer.count("quadrature.integrals")
            idx = tracer.open(fn.__name__, "quadrature")
            try:
                return fn(counted, *args, **kwargs)
            finally:
                tracer.close(idx)
        return traced

    def _wrap_mc_chunks(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            chunks = fn(*args, **kwargs)
            while True:
                idx = tracer.open("mc_chunks", "bodies")
                try:
                    pts, m = next(chunks)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.count("bodies.mc_chunks")
                tracer.count("bodies.mc_samples", m)
                tracer.count("bodies.mc_inside", pts.shape[0])
                yield pts, m
        return traced

    def _wrap_search(self, fn):
        traced = self._wrap(fn, fn.__name__, "search")
        tracer = self

        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            tracer.count("search.accepted", len(result.trace))
            return result
        return counted

    def install(self):
        replace = {}
        for layer, mod in _MODULES.items():
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                if fn is grunlab.quadrature.adaptive_simpson:
                    replace[fn] = self._wrap_quadrature(fn)
                elif fn is grunlab.bodies.mc_chunks:
                    replace[fn] = self._wrap_mc_chunks(fn)
                elif fn is grunlab.search.minimize_tail_ratio:
                    replace[fn] = self._wrap_search(fn)
                else:
                    replace[fn] = self._wrap(fn, name, layer)
        for ns in _NAMESPACES:
            for name, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in replace:
                    self._saved.append((ns, name, value))
                    setattr(ns, name, replace[value])
        poly = grunlab.bodies.Polytope3D
        self._saved.append((poly, "section_area", poly.section_area))
        poly.section_area = self._wrap(poly.section_area, "section_area", "bodies")

    def uninstall(self):
        for ns, name, value in reversed(self._saved):
            setattr(ns, name, value)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self, ops):
        """{(layer, name): [total self seconds, calls, total inclusive seconds,
        top-level inclusive seconds]} over the spans of the given ops."""
        ops = set(ops)
        child = defaultdict(float)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0 and op in ops:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0, 0.0, 0.0])
        for idx, (name, layer, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            acc = out[(layer, name)]
            acc[0] += end - start - child[idx]
            acc[1] += 1
            acc[2] += end - start
            if parent >= 0 and self.spans[parent][1] == "op":
                acc[3] += end - start
        return out

    def op_counts(self, ops):
        total = Counter()
        for op in ops:
            total.update(self.counts.get(op, {}))
        return total

    def write(self, path):
        names = sorted({(s[1], s[0]) for s in self.spans})
        index = {key: i for i, key in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": [f"{layer}.{name}" for layer, name in names],
                       "fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": [[index[(s[1], s[0])], round(s[2], 7), round(s[3], 7), s[4], s[5]]
                                 for s in self.spans]}, fh, separators=(",", ":"))
