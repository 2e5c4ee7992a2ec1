"""Spans, self times and order statistics for the benchmark.

Standard library only: the cold-start child imports this module before it
imports qarrow, and must not pull numpy in ahead of the timed import.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field

# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


@dataclass
class Span:
    name: str                   # "<layer>.<what>", e.g. "parser.parse"
    start: float                # time.perf_counter(); CLOCK_MONOTONIC on
    end: float                  # Linux, so comparable across processes
    parent: int                 # index of the enclosing span, or -1
    op: int                     # id of the benchmark op it belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Keeps spans in memory; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def _record(self, name: str, attrs: dict):
        s = Span(name, time.perf_counter(), 0.0,
                 self._stack[-1] if self._stack else -1, self.op, attrs)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s.attrs
        except BaseException as e:
            s.attrs["error"] = type(e).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def span(self, name: str, **attrs):
        """Context manager yielding the span's attribute dict (or ``{}``)."""
        if not self.enabled:
            return nullcontext({})
        return self._record(name, attrs)

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans a child process recorded, its roots under ``parent``."""
        base = len(self.spans)
        for d in spans:
            d = dict(d, op=self.op)
            d["parent"] = parent if d["parent"] < 0 else base + d["parent"]
            self.spans.append(Span(**d))

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def median(xs) -> float:
    return statistics.median(xs) if xs else float("nan")


def tail(xs: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it, and that percentile; the median when there are too few samples."""
    xs = sorted(xs)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return median(xs), 50
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return xs[n - TAIL_BEYOND - 1], pct
