"""Host-speed normalisation of wall-clock timings.

On a shared host the same round of work takes anywhere from 0.7x to
1.4x its usual time, drifting over seconds as neighbours come and go:
CPU time drifts with it, so it is the core itself that is slower, not
the process descheduled.  Medians over one run cannot remove a drift
that lasts the whole run.

A fixed pure-Python probe, run by the benchmark between rounds while
none of the program's work is in flight, measures the host's speed at
that moment.  A round's normalised time is its wall time scaled by
``NOMINAL_PROBE_S`` over the mean of the probes just before and after
it: the time the round would have taken on a host where the probe takes
``NOMINAL_PROBE_S``.  The probe's instruction mix (attribute access,
method calls, dict lookups, small-int arithmetic) is that of the interpreter-bound program, so a slow-down of
the host slows both alike.

The probe is benchmark code, identical on every commit, so a change to
the program moves normalised times exactly as it moves wall times.  The
normalisation assumes the program leaves nothing running between
rounds; the raw wall figures are printed beside the normalised ones.
"""

from __future__ import annotations

import time

#: Probe seconds on the reference host (a quiet 2.1 GHz Xeon vCPU).
NOMINAL_PROBE_S = 0.004
#: Loop iterations of one probe.
PROBE_STEPS = 20_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def step(self, k: int) -> int:
        self.value = (self.value + k * 7) & 0xFFFF
        return self.value


def probe() -> float:
    """Seconds one fixed probe pass takes on this host right now."""
    step = _Cell().step
    table = {i: i * 3 for i in range(64)}
    total = 0
    start = time.perf_counter()
    for i in range(PROBE_STEPS):
        total += step(table[i & 63])
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError("unreachable")
    return elapsed


def factor(before: float, after: float) -> float:
    """Scale for a timing bracketed by two probes: nominal over their
    mean (below 1 on a slowed host)."""
    return NOMINAL_PROBE_S / ((before + after) / 2)
