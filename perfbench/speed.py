"""Host-speed references: the end-to-end times are reported at a fixed host
speed.

The benchmark runs on a few shared cores whose speed drifts by a third or
more for tens of seconds at a time, as neighbours come and go, and every timing
moves with it.  Longer runs do not average that away.  So the harness
times a fixed reference alongside the samples and scales each sample by
``nominal / reference time`` (the median of the latest few references):
seconds on a host where the reference takes ``nominal``.  qarrow's own
speed is what is left in the ratio; the raw medians are printed on the
report lines.

Three references, because interpreter work, array work and process
start-up do not speed up alike when the host does:

- warm passes of ``prover`` and ``frontend``: ``interpreter_seconds``,
  fixed pure-Python work in the harness process;
- warm passes of ``circuits``, whose time is mostly numpy's:
  ``array_seconds``, fixed numpy work of the kinds the evaluator does;
- cold commands and set-up: a fresh ``python3 -c "import numpy"``, the
  interpreter start and the largest import a qarrow process also pays
  (``cold.start_seconds``).

None of them runs qarrow code, so no change to qarrow moves them.
Standard library only at import time, like ``tracing``.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque

# Each reference's time on the 2-vCPU VM the bounds were set on, in its
# usual (slower) phase, so scaled times read close to that host's wall times.
NOMINAL_INTERPRETER_S = 0.0062
NOMINAL_ARRAYS_S = 0.0072
NOMINAL_START_S = 0.17
WINDOW = 5                      # references in the moving median


def interpreter_kernel() -> int:
    """Interpreter work of the kinds qarrow does: integer arithmetic, and
    building and walking a tree of tuples through a dict."""
    s = 0
    for i in range(30000):
        s += i * i % 7

    def build(d):
        return (d, None, None) if d == 0 else (d, build(d - 1), build(d - 1))

    def walk(t, acc):
        if t is not None:
            d, left, right = t
            acc[d] = acc.get(d, 0) + 1
            walk(left, acc)
            walk(right, acc)
        return acc

    for _ in range(2):
        s += len(walk(build(11), {}))
    return s


def array_kernel() -> float:
    """numpy work shaped like the evaluator's: ``add.at`` scattering a batch
    of vectorized densities (most of a circuits pass), an axis reshuffle
    and an ``einsum`` sandwich."""
    import numpy as np
    d, k = 16, 256
    m = (np.arange(d) * 5) % d
    rows = (m[:, None] * d + m[None, :]).reshape(-1)
    v = np.eye(d * d, k, dtype=complex) + np.arange(k) / k
    out = np.zeros((d * d, k), dtype=complex)
    for _ in range(3):
        np.add.at(out, rows, v)
    w = v.reshape(4, 4, 4, 4, k).transpose(0, 2, 1, 3, 4).reshape(d, d, k)
    f = np.kron(np.eye(4), np.ones((4, 4))) / 4
    e = np.einsum("ai,ijk,bj->abk", f, w, f, optimize=True)
    return float(out.real.sum() + e.real.sum())


def _timed(kernel) -> float:
    """Time ``kernel`` once, with the collector off so the size of the heap
    qarrow has built does not change the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def interpreter_seconds() -> float:
    return _timed(interpreter_kernel)


def array_seconds() -> float:
    return _timed(array_kernel)


class Speed:
    """Readings of one reference; ``scale`` uses the median of the latest
    WINDOW of them."""

    def __init__(self, measure, nominal: float):
        self.measure, self.nominal = measure, nominal
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.readings: list[float] = []

    def probe(self) -> None:
        dt = self.measure()
        self.recent.append(dt)
        self.readings.append(dt)

    def scale(self, seconds: float) -> float:
        """``seconds`` at the nominal speed; needs a probe first."""
        return seconds * self.nominal / statistics.median(self.recent)
