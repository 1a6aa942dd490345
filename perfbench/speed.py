"""Machine-speed reference for normalising measured times.

The machines this benchmark runs on are shared: the speed of the same pure
Python work drifts by up to ±30% over tens of seconds (CPU time drifts with
it, so it is clock speed, not waiting).  Every timed stretch is therefore
bracketed by a fixed reference loop written like the library's hot loops
(list indexing, comparisons, integer updates), and measured times are
reported at reference speed:

    time at reference speed = measured time * NOMINAL_S / reference time

The raw reference durations are reported with the per-layer metrics as
`machine.ref_ms`, so raw times can be recovered.
"""

from __future__ import annotations

import time

# the reference loop's duration at reference speed; the baseline runs saw
# medians of 2.2-2.5 ms on a 2-CPU x86_64 machine
NOMINAL_S = 0.0022

_CHIPS = list(range(64)) * 4
_DEGS = [96] * 256


def _loop() -> int:
    chips, degs = _CHIPS, _DEGS
    hits = 0
    for _round in range(80):
        for i in range(256):
            if chips[i] >= degs[i]:
                hits += 1
            chips[i] += 1
        for i in range(256):
            chips[i] -= 1
    return hits


def reference_s() -> float:
    """Duration of the reference loop now: the least of three runs, which
    drops runs that an interrupt happened to land in."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best
