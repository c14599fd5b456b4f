"""Span tracing of the pvc library from outside it.

`Tracer.request()` rebinds every public function of the traced pvc
modules, in every pvc module namespace that holds it, to a wrapper that
records a span; leaving the block restores the originals. Nothing in the
library changes, and untraced requests run the unwrapped functions, so
tracing costs nothing while it is off.

A span holds its name (`<module>.<function>`), parent, request id, start
and end (perf_counter seconds), the shapes of its array arguments, a label
(the first argument when it is a string, e.g. a grad-check module id) and,
when memory tracking is on, the tracemalloc peak bytes held above what was
held when the span opened.
"""
from __future__ import annotations

import contextlib
import inspect
import sys
import time
import tracemalloc

TRACED_MODULES = ("input_pipeline", "vit", "conditioning", "tensor",
                  "compression", "io", "verification")

ROOT_SPAN = "bench.request"


class Span:
    __slots__ = ("name", "parent", "request", "start", "end", "shapes",
                 "label", "mem0", "abs_peak", "peak_bytes")

    def __init__(self, name, parent, request, shapes, label):
        self.name = name
        self.parent = parent
        self.request = request
        self.shapes = shapes
        self.label = label
        self.mem0 = self.abs_peak = self.peak_bytes = 0
        self.start = self.end = 0.0

    def as_dict(self, index, t0):
        return {"id": index, "name": self.name, "parent": self.parent,
                "request": self.request, "start": self.start - t0,
                "end": self.end - t0, "shapes": self.shapes,
                "label": self.label, "peak_bytes": self.peak_bytes}


class Tracer:
    def __init__(self):
        self.track_memory = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = -1

    # -- recording -------------------------------------------------------

    def _mem_event(self) -> int:
        cur, peak = tracemalloc.get_traced_memory()
        for i in self._stack:
            s = self.spans[i]
            if peak > s.abs_peak:
                s.abs_peak = peak
        tracemalloc.reset_peak()
        return cur

    def _open(self, name, args) -> int:
        shapes = [list(a.shape) for a in args if hasattr(a, "shape")]
        label = args[0] if args and isinstance(args[0], str) else None
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self._request, shapes, label)
        index = len(self.spans)
        self.spans.append(span)
        if self.track_memory:
            span.mem0 = span.abs_peak = self._mem_event()
        self._stack.append(index)
        span.start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if self.track_memory:
            self._mem_event()
            span.peak_bytes = span.abs_peak - span.mem0
        self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self._open(name, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def request(self, request_id: int, track_memory: bool):
        """One traced request: wrappers installed under a root span.

        Tracemalloc slows every Python allocation, so memory is tracked
        only where the calls are few and the arrays large.
        """
        self._request = request_id
        self.track_memory = track_memory
        if self.track_memory:
            tracemalloc.start()
        try:
            with self._installed():
                index = self._open(ROOT_SPAN, ())
                try:
                    yield
                finally:
                    self._close(index)
        finally:
            if self.track_memory:
                tracemalloc.stop()

    @contextlib.contextmanager
    def _installed(self):
        originals = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"pvc.{short}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    originals[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        rebound = []
        for modname, mod in list(sys.modules.items()):
            if modname != "pvc" and not modname.startswith("pvc."):
                continue
            for name, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
                    rebound.append((mod, name, value))
        try:
            yield
        finally:
            for mod, name, value in rebound:
                setattr(mod, name, value)

    # -- roll-up ---------------------------------------------------------

    def requests(self) -> dict[int, list[int]]:
        """Span indices grouped by request id, in opening order."""
        out: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            out.setdefault(s.request, []).append(i)
        return out

    def self_times(self) -> list[float]:
        """Duration minus the part covered by child spans, per span."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def lineage(self, index):
        """Names of the span and of each span above it, innermost first."""
        while index is not None:
            yield self.spans[index].name
            index = self.spans[index].parent

    def rollup(self, request_ids: set) -> dict:
        """Calls, inclusive and self seconds per span name over the given requests."""
        own = self.self_times()
        table: dict[str, dict] = {}
        for s, self_s in zip(self.spans, own):
            if s.request not in request_ids:
                continue
            row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += self_s
        return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))

    def dump(self, request_id: int) -> list[dict]:
        indices = self.requests().get(request_id, [])
        if not indices:
            return []
        t0 = self.spans[indices[0]].start
        return [self.spans[i].as_dict(i, t0) for i in indices]
