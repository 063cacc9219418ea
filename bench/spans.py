"""In-memory spans around the benchmark's calls into ``sqlab``.

A span records one call: its name (``layer.function``), layer, op id, start,
end and parent span.  Spans are kept in a list and written out once, when the
run ends.  With tracing off a :class:`NullTracer` takes their place; it still
runs every call, so the code path of an op is the same with and without
tracing and only the bookkeeping differs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

LAYERS = ("graph", "adversary", "regularity", "squarewalk", "blowup", "embedder", "check")


class NullTracer:
    """Tracing off: calls run, nothing is recorded."""

    _null = nullcontext()

    def span(self, layer: str, name: str):
        return self._null

    def call(self, layer: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op: str) -> None:
        pass


class Tracer(NullTracer):
    """Tracing on: every span is appended to ``self.spans``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = "setup"

    def begin_op(self, op: str) -> None:
        self._op = op

    @contextmanager
    def span(self, layer: str, name: str):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "layer": layer,
            "name": f"{layer}.{name}",
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def call(self, layer: str, fn, *args, **kwargs):
        with self.span(layer, fn.__name__):
            return fn(*args, **kwargs)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


def layer_times(spans: list[dict]) -> dict[str, float]:
    """``<layer>.busy_s`` and ``<layer>.self_s`` for every layer in LAYERS plus
    ``bench`` (the op spans themselves).

    Busy time counts a span only when no ancestor belongs to the same layer,
    so nested calls of one layer are not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    out = {}
    for layer in LAYERS + ("bench",):
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    for s in spans:
        layer = s["layer"]
        out[f"{layer}.self_s"] += own[s["id"]]
        parent = s["parent"]
        while parent is not None and by_id[parent]["layer"] != layer:
            parent = by_id[parent]["parent"]
        if parent is None:
            out[f"{layer}.busy_s"] += s["end"] - s["start"]
    return out


def time_by_name(spans: list[dict]) -> dict[str, float]:
    """Total duration per span name (``layer.function``)."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out
