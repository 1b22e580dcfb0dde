"""Span recording for the benchmark's traced runs.

A span is recorded around each call the benchmark makes into a hypermatch
module, and around the benchmark's own grouping steps (set-up, rounds).  A
span name is ``<layer>.<call>``; the layer is the text before the first dot.
Spans are kept in memory as ``[id, name, parent id, start, end]`` and
written out once, when the run ends.

``NullTracer`` has the same interface and records nothing, so untraced runs
execute the same benchmark code with no timing calls around module calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class NullTracer:
    spans = ()  # nothing is recorded; span counts read as 0

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return _NO_SPAN


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = [len(self.spans), name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def summarize(spans: list, lo: int, hi: int) -> tuple[dict, dict]:
    """(total seconds per span name, self seconds per layer) for spans[lo:hi].

    A span's self time is its duration minus the durations of its direct
    children, so each interval is attributed to exactly one layer.
    """
    by_name: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for sid, name, parent, start, end in spans[lo:hi]:
        dur = end - start
        by_name[name] += dur
        self_time[name.split(".", 1)[0]] += dur
        if parent is not None and parent >= lo:
            self_time[spans[parent][1].split(".", 1)[0]] -= dur
    return dict(by_name), dict(self_time)
