"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent index).  Names are ``<layer>.<call>``
with the layer one of the package's modules (``stack`` for ``_stack``), or
``bench`` for the benchmark's own timed regions.  The span stack is shared
by threads: the library's ``run_deep`` worker runs while its caller waits,
so spans opened in the worker nest under the span of the ``run_deep`` call
that started it.
"""
from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter


class NoTrace:
    """Calls straight through: the untraced runs pay one extra call."""

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Spans in flat arrays, which the garbage collector does not scan."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._open: list[int] = []

    def call(self, name, fn, *args):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
            self.starts[idx] = start
            self.ends[idx] = end

    def mark(self) -> int:
        return len(self.names)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Self time per span name over spans opened since ``since``: each
        span's duration less the durations of its direct children."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(since, n):
            if self.parents[i] >= since:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(since, n):
            out[self.names[i]] += self.ends[i] - self.starts[i] - child[i]
        return dict(out)

    def dump(self) -> list[dict]:
        t0 = self.starts[0] if self.names else 0.0
        return [{"name": n, "start_s": round(s - t0, 9), "end_s": round(e - t0, 9),
                 "parent": p}
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
