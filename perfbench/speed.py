"""Times at the reference machine speed.

The benchmark runs on shared virtual machines whose speed drifts with what
the other tenants do: a fixed loop can take 1.5 times as long for tens of
seconds, long enough to move the best of a run's passes.  So every pass
times a fixed calibration loop (Fraction arithmetic and dict updates from
the standard library, nothing of canonfn) before the first query and after
each one.  A query's time is divided by the mean of the loop's two times
around it and multiplied by REFERENCE_S, the loop's time on the reference
machine when it is quiet.  The result reads as the query's time on that
machine.  A change to canonfn moves the query and not the loop, so it shows
in full.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The calibration loop's time on the reference machine when quiet (Python
# 3.11.7 on 2 vCPUs of a shared Intel Xeon virtual machine): the lowest
# times it read there, beside the canonfn queries.
REFERENCE_S = 0.00045


def calibrate() -> float:
    """Seconds that the fixed loop takes now, with the collector off, so the
    objects left by the previous query do not change its work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s, seen = Fraction(0), {}
        for i in range(1, 200):
            s += Fraction(i, i + 1)
            seen[(i % 97, i % 13)] = s
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled_latencies(latencies, cals) -> list[float]:
    """Each latency at the reference speed; cals[i] and cals[i + 1] are the
    loop's times just before and just after query i."""
    if len(cals) != len(latencies) + 1:
        raise ValueError("one calibration before the first query and one after each")
    return [lat * 2 * REFERENCE_S / (cals[i] + cals[i + 1]) for i, lat in enumerate(latencies)]


def scaled_setup(setup_s: float, cals) -> float:
    """The set-up time at the reference speed, by the pass's median loop time."""
    return setup_s * REFERENCE_S / statistics.median(cals)
