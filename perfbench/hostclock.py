"""Pass timing corrected for the speed of a shared host.

On a shared VM the same single-threaded work can take up to twice as long
for tens of seconds at a time, CPU time included, so a run that falls in a
slow phase reads slow as a whole. ``HostClock`` times a pass in segments of
about ``PROBE_EVERY_S`` and, between segments, times a fixed reference loop:
small numpy products and elementwise ops, JSON round trips, dict and list
work, greedy suppression over small frozen dataclasses. That is the program's own mix, with a code and data footprint wide
enough that the loop slows as much as the program does when the host is
contended (a tight loop slows less). Each segment is rescaled by
``REFERENCE_S`` over the mean duration of the two loops around it, so the
result reads in seconds at the host speed where the loop takes
``REFERENCE_S``. The loops' own time is not counted. Segments end at CLI
call boundaries and, through ``wrap``, at calls into the wrapped layer
functions.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from statistics import mean
from typing import Callable

import numpy as np

REFERENCE_S = 0.030  # the loop's duration on the baseline host (2-vCPU Xeon, 2.1 GHz) when fast
PROBE_EVERY_S = 0.5

_rng = np.random.default_rng(0)
_MATRICES = [_rng.normal(size=(n, n)) for n in (8, 16, 32, 64)]
_DOC = {"a": list(range(50)), "b": {"c": [1.5] * 20, "d": "x" * 40}}


@dataclass(frozen=True)
class _Span:
    start: int
    end: int


_SPANS = [_Span(i, i + 7) for i in range(120)]


def _overlap(a: _Span, b: _Span) -> float:
    inter = max(min(a.end, b.end) - max(a.start, b.start), 0)
    return inter / (a.end - a.start + b.end - b.start - inter)


def reference_loop() -> float:
    """Run the fixed reference work once; returns its wall time in seconds."""
    started = time.perf_counter()
    total, seen = 0.0, {}
    for i in range(300):
        for m in _MATRICES:
            v = m @ m[:, :4]
            total += float(np.exp(-np.abs(v)).sum())
            total += np.clip(v, -1.0, 1.0).T.copy()[1:, ::2].mean()
        seen[i % 97] = json.loads(json.dumps(_DOC))["a"][i % 50]
        total += sum(sorted(seen.values())[:5])
    for _ in range(6):  # greedy suppression over small frozen dataclasses
        kept: list[_Span] = []
        for span in sorted(_SPANS, key=lambda s: -((s.start * 7919) % 101)):
            if all(_overlap(span, k) <= 0.5 for k in kept[-20:]):
                kept.append(span)
        total += len(kept)
    return time.perf_counter() - started


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work done between two reference loops, at the reference speed."""
    return seconds * REFERENCE_S / mean((before, after))


class HostClock:
    """Accumulates one pass's raw and host-corrected time."""

    def __init__(self):
        self.raw_s = self.scaled_s = 0.0
        self.probes = 0
        self._last = 0.0
        self._since: float | None = None

    def start(self) -> None:
        self._last = reference_loop()
        self.probes = 1
        self._since = time.perf_counter()

    def tick(self) -> None:
        """End the current segment if it has run for PROBE_EVERY_S."""
        if self._since is not None and time.perf_counter() - self._since >= PROBE_EVERY_S:
            self._close()

    def stop(self) -> None:
        self._close()
        self._since = None

    def _close(self) -> None:
        seconds = time.perf_counter() - self._since
        probe = reference_loop()
        self.raw_s += seconds
        self.scaled_s += rescale(seconds, self._last, probe)
        self._last = probe
        self.probes += 1
        self._since = time.perf_counter()

    def wrap(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def ticking(*args, **kwargs):
            self.tick()
            try:
                return fn(*args, **kwargs)
            finally:
                self.tick()
        return ticking
