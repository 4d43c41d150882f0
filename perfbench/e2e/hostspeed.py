"""The host's speed, probed during a run, to put its times on one scale.

The benchmark gets a few cores of a shared host whose speed drifts: the
same regeneration of Figure 5 took 13 s in one run and 19 s a few
minutes later, with no steal time and CPU time equal to wall time, so
the vCPU runs but gets less done (another tenant on the same physical
core, presumably).  A 30 s run cannot average away drifts that last
minutes, so the benchmark measures the host's speed beside the program.

A probe times a fixed pure-Python loop that lives here, so no change to
the program can make it faster or slower.  A run probes between the
operations it measures (after every simulated cell, between set-ups),
and scales the wall time of a stretch of the run by ``REF_S`` over the
probe time averaged across that stretch, each probe weighted by the
time around it: the time the stretch would have taken on a host that
runs the probe in ``REF_S``.  One factor per stretch (a whole
regeneration, say), not per cell: a single probe is too noisy to scale
the cell next to it, while a few hundred follow the host's drift.  On
the 2-vCPU review host, ten runs of fig3-yield (seeds 1-10) had a
quartile spread of 0.31 in wall time and 0.05 after scaling.  Raw wall
times are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import time
from heapq import heappop, heappush

#: the span clock (see e2e.trace); this module imports no more than it
#: must, because it is loaded beside set-up measurements
now = time.monotonic

#: the reference host runs one probe loop in this long, seconds (about a
#: fast period of the 2-vCPU review host)
REF_S = 0.001
LOOPS = 2300
#: loops per probe; a probe is their mean
REPEATS = 3


def _loop(n: int) -> float:
    """Interpreter work of the simulator's kind: dicts, a heap, floats."""
    heap: list = []
    seen: dict = {}
    acc = 0.0
    for i in range(n):
        k = i & 63
        seen[k] = seen.get(k, 0) + 1
        acc += i * 0.5
        heappush(heap, (i * 7919) % 1009)
        if len(heap) > 32:
            acc -= heappop(heap)
    return acc


def probe_s() -> float:
    """Seconds the host takes for one probe loop now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REPEATS):
            _loop(LOOPS)
        return (time.perf_counter() - start) / REPEATS
    finally:
        if was_enabled:
            gc.enable()


class SpeedTrack:
    """The host-speed probes of one run."""

    def __init__(self) -> None:
        self.times: list[float] = []  #: midpoint of each probe
        self.probes: list[float] = []  #: seconds per probe loop
        self.spans: list[tuple[float, float]] = []

    def __len__(self) -> int:
        return len(self.probes)

    def probe(self) -> None:
        start = now()
        self.probes.append(probe_s())
        end = now()
        self.times.append((start + end) / 2)
        self.spans.append((start, end))

    def speed(self, first: int = 0, last: int = -1) -> float:
        """``REF_S`` over the mean probe time of probes ``first..last``.

        The mean weights the stretch between two neighbouring probes by
        its length and values it at the mean of the two.
        """
        last = last % len(self.probes)
        t = self.times[first:last + 1]
        p = self.probes[first:last + 1]
        if not p:
            raise ValueError("no probe in range")
        if len(p) == 1 or t[-1] == t[0]:
            return REF_S * len(p) / sum(p)
        weighted = sum((p[i] + p[i + 1]) / 2 * (t[i + 1] - t[i]) for i in range(len(p) - 1))
        return REF_S * (t[-1] - t[0]) / weighted

    def probing_s(self, a: float, b: float) -> float:
        """Time spent probing between ``a`` and ``b``."""
        return sum(max(0.0, min(b, e) - max(a, s)) for s, e in self.spans)

    def summary(self) -> str:
        ms = sorted(1000 * p for p in self.probes)
        return (f"{len(ms)} host-speed probes of {ms[0]:.3f}..{ms[-1]:.3f} ms "
                f"(median {ms[len(ms) // 2]:.3f}, reference {1000 * REF_S:g}): "
                f"speed {self.speed():.3f}")
