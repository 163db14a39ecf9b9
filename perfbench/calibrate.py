"""How fast the machine runs right now, from a fixed pure-Python kernel.

On a shared machine the speed of the same code drifts by up to a third
over minutes.  Runs time this kernel next to the workload, and every
reported time is scaled to a machine on which the kernel takes
NOMINAL_S: value * NOMINAL_S / (median kernel time of the run).  The
kernel does what the program does most: build frozensets, intersect,
hash into a dict and sort.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.003

_WORDS = [frozenset(range(i % 7, i % 7 + 1 + i % 4)) for i in range(80)]


def kernel_seconds() -> float:
    start = time.perf_counter()
    acc = {}
    for a in _WORDS:
        for b in _WORDS:
            c = a & b
            if c:
                acc[c] = acc.get(c, 0) + len(a | b)
    sorted(acc.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    return time.perf_counter() - start


def speed(kernel_samples) -> float:
    """Multiplier from measured seconds to seconds on the nominal machine."""
    return NOMINAL_S / statistics.median(kernel_samples)
