"""Host-speed correction for timings taken on a shared machine.

On a host shared with other tenants the speed of unchanged code drifts by
tens of percent over seconds to minutes, and whole runs can fall into a
slow spell, so neither the median nor the fastest of a run's rounds
repeats from run to run.  A fixed reference kernel (pure-Python arithmetic
and big-integer additions; nothing of shiftcode, no numpy) is timed next to
every measurement, and a measured time ``t`` is reported as
``t * NOMINAL_S / k``, where ``k`` is the kernel's time around it: the time
the measurement would take on a host that runs the kernel in ``NOMINAL_S``.
Raw seconds are printed alongside.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.020       # about the kernel's median time on a 2 GHz Xeon vCPU
SETUP_REPEATS = 5       # kernel calls before and after a set-up

_BIG = [(1 << 100_000) + i for i in range(40)]


def _kernel() -> int:
    s = 0
    for i in range(100_000):
        s += i * i % 7
    t = 0
    for _ in range(60):
        for x in _BIG:
            t += x
    return s + (t & 1)


def reference_s(repeats: int = 3) -> float:
    """Median wall time of the reference kernel over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def corrected(seconds: float, ref_s: float) -> float:
    """``seconds`` at nominal host speed, given the kernel's time around it."""
    return seconds * NOMINAL_S / ref_s
