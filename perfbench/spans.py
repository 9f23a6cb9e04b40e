"""In-memory span recorder used by the traced benchmark run.

Spans are taken from outside the program: a ``Tracer`` temporarily replaces
public functions of wivision modules with timing wrappers, so nothing under
``src/`` has to know about tracing.  Each span keeps its name, start, end and
the index of the span that was open when it started.  Spans stay in memory
until the run ends and are then written out in one piece.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

# The span around one workload iteration; it belongs to no layer of the program.
ROOT = "bench.iteration"


class Tracer:
    """Records nested spans and the counters that the wrapped calls report."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index or -1]
        self.values: dict[str, list] = {}  # named samples, e.g. s_hat per window
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def record(self, key: str, value) -> None:
        self.values.setdefault(key, []).append(value)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` inside a span; ``observe(tracer, result, args)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result, args)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each ``(module, attribute, span name, observe)`` for the duration."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        try:
            for (module, attr, name, observe), (_, _, original) in zip(targets, saved):
                setattr(module, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time of its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer, the layer being the span name's prefix."""
        out: dict[str, float] = {}
        for name, value in self.self_times().items():
            if name != ROOT:
                layer = name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + value
        return out

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def percentile(samples, q: float) -> float:
    """The q-th percentile (0 < q < 100) by the inclusive quantile method."""
    data = sorted(samples)
    if len(data) == 1:
        return float(data[0])
    cuts = statistics.quantiles(data, n=100, method="inclusive")
    return float(cuts[int(q) - 1])


def dump(path, tracers) -> None:
    """Write the spans of every traced iteration as one JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"iteration": i, "spans": t.to_json(), "values": t.values}
                   for i, t in enumerate(tracers)], fh)
