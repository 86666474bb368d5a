"""Machine-speed probe that steadies timings on a host whose speed drifts.

On a shared virtual machine the same pure-Python loop can take 50% longer
for a stretch of seconds and then recover; process CPU time follows wall
time, so the slowdown is in the processor, not in scheduling.  A short
fixed loop, run between the timed stretches of a workload, samples the
machine's speed at that moment.  Each timed stretch is scaled by
``REFERENCE_S`` over the mean of the two probes that bracket it, so a
reported time reads as the time the same work would take on a machine
where the probe takes ``REFERENCE_S``.  The probe calls no rbott code, so
any change to rbott moves the scaled numbers exactly as it moves the raw
ones; the raw numbers are kept beside them in the details file.
"""

from __future__ import annotations

import time

PROBE_ITERATIONS = 64_000
# About what the probe takes on an idle core of the 2-CPU machine the
# benchmark was tuned on, so scaled numbers stay close to raw ones.
REFERENCE_S = 0.010


def probe() -> float:
    """Seconds one run of the fixed interpreter loop takes right now."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - t0


class SpeedProbe:
    """Scale factors for consecutive timed stretches."""

    def __init__(self):
        self.last = probe()

    def factor(self) -> float:
        """Scale for the stretch since the previous call (or since creation)."""
        now = probe()
        scale = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return scale
