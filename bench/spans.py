"""In-memory spans for the benchmark's traced runs.

A span is one call the benchmark makes into a layer of the package: the
layer name, start and end (``time.perf_counter``), the index of the
enclosing span and a small dict of attributes.  Spans stay in memory until
the run ends; ``dump`` then writes them as JSON lines.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

LAYER, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """Records a span around each wrapped call.

    A disabled tracer records nothing; before each call it runs ``tick``
    (an untraced pass's calibration hook), if one is given.
    """

    def __init__(self, enabled: bool = False, tick=None):
        self.enabled = enabled
        self.spans: list = []
        self._tick = tick
        self._stack: list = []

    @contextmanager
    def span(self, layer: str, attrs: dict | None = None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = [layer, time.perf_counter(), None, parent, attrs or {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def call(self, layer: str, fn, *args, attrs: dict | None = None):
        if not self.enabled:
            if self._tick is not None:
                self._tick()
            return fn(*args)
        with self.span(layer, attrs):
            return fn(*args)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)), 1) - 1]


def layer_stats(spans: list) -> dict:
    """Per-layer totals of one pass: ``<layer>.s`` (summed self time),
    ``.calls``, ``.ms_p50`` and ``.ms_p99`` (per-call durations), plus the
    attribute splits the benchmark defines (``elements`` summed, ``path``
    splitting self time)."""
    selfs = self_times(spans)
    durations = defaultdict(list)
    out: dict = defaultdict(float)
    for s, own in zip(spans, selfs):
        layer, attrs = s[LAYER], s[ATTRS]
        durations[layer].append(s[END] - s[START])
        out[f"{layer}.s"] += own
        if "elements" in attrs:
            out[f"{layer}.elements"] += attrs["elements"]
        if "path" in attrs:
            out[f"{layer}.{attrs['path']}_s"] += own
    for layer, ds in durations.items():
        out[f"{layer}.calls"] = len(ds)
        out[f"{layer}.ms_p50"] = percentile(ds, 0.50) * 1e3
        out[f"{layer}.ms_p99"] = percentile(ds, 0.99) * 1e3
    return dict(out)


def dump(spans: list, path, **context) -> None:
    """Write spans as JSON lines; ``context`` (workload, seed, pass) goes on
    every line."""
    selfs = self_times(spans)
    with open(path, "a", encoding="utf-8") as fh:
        for i, (s, own) in enumerate(zip(spans, selfs)):
            rec = {
                "id": i,
                "parent": s[PARENT],
                "layer": s[LAYER],
                "start": s[START],
                "end": s[END],
                "self_s": own,
                **context,
                **s[ATTRS],
            }
            fh.write(json.dumps(rec) + "\n")
