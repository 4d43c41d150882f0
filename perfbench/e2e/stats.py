"""Small statistics helpers shared by every workload.

Kept free of any ``repro`` import so the tests can exercise them
without the package on the path.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: candidate tail percentiles, lowest first
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: samples that must lie beyond a tail percentile for it to be reported
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0..100); inf-safe."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100] (got {p})")
    ordered = sorted(samples)
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    if frac == 0.0 or ordered[lo] == ordered[hi]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


#: sub-intervals per order statistic when integrating the Beta weights
_HD_STEPS = 16
#: weights below this share of the total count as zero, so that a
#: failed job (+inf) far from the percentile does not make it infinite
_HD_MIN_WEIGHT = 1e-9


def hd_percentile(samples: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of percentile ``p`` (0 < p < 100).

    A weighted mean of every order statistic, with Beta(p(n+1),
    (1-p)(n+1)) weights, instead of one or two of them.  Job latencies
    here come from jobs of very different sizes and a host whose speed
    flips within a second, so the one or two jobs that sit at a
    percentile change from run to run; the weighted mean follows the
    distribution's shape and is far steadier.  The weights are
    integrated numerically, so no special functions are needed.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100) (got {p})")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    h = 1.0 / (n * _HD_STEPS)
    logs = [
        (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
        for x in ((k + 0.5) * h for k in range(n * _HD_STEPS))
    ]
    top = max(logs)
    weights = [
        sum(math.exp(v - top) for v in logs[i * _HD_STEPS:(i + 1) * _HD_STEPS])
        for i in range(n)
    ]
    total = sum(weights)
    return sum(
        w * x for w, x in zip(weights, ordered) if w > _HD_MIN_WEIGHT * total
    ) / total


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with >= MIN_BEYOND samples past it.

    With ``n`` samples, ``n * (1 - p/100)`` of them lie beyond the
    ``p``-th percentile; p99 therefore needs 1,000 samples.  Falls
    back to the median when even that has fewer than MIN_BEYOND.
    """
    best = TAIL_CANDIDATES[0]
    for p in TAIL_CANDIDATES:
        # rounded so float error cannot drop p99 at exactly 1,000 samples
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            best = p
    return best


def tail(samples: Sequence[float], failed: int = 0) -> tuple[float, float, int]:
    """(percentile, value, sample count) of the tail rule.

    The value is the Harrell-Davis estimate (see :func:`hd_percentile`).
    ``failed`` operations count as samples beyond any limit: they join
    the population as +inf, so failures near the percentile make the
    tail infinite.
    """
    pop = list(samples) + [math.inf] * failed
    p = tail_percentile(len(pop))
    return p, hd_percentile(pop, p), len(pop)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf


def due_latencies(due: Sequence[float], done: Sequence[float]) -> list[float]:
    """Per-job latency measured from when each job was *due*.

    An open-loop generator that runs late sends a job after its due
    time; timing from the send would hide that stall, so the clock
    starts at the due time regardless of when the request went out.
    """
    if len(due) != len(done):
        raise ValueError("due and done times differ in length")
    return [d1 - d0 for d0, d1 in zip(due, done)]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[tuple]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are ``(span_id, parent_id, start, end)`` tuples; a
    parent of ``None`` marks a root.  Children are clipped to their
    parent's interval, and overlapping children are counted once.
    """
    children: dict[object, list[tuple[float, float]]] = {}
    bounds = {sid: (s, e) for sid, _, s, e in spans}
    for sid, parent, s, e in spans:
        if parent is not None and parent in bounds:
            ps, pe = bounds[parent]
            children.setdefault(parent, []).append((max(s, ps), min(e, pe)))
    out = {}
    for sid, _, s, e in spans:
        covered = union_length(
            (cs, ce) for cs, ce in children.get(sid, []) if ce > cs
        )
        out[sid] = (e - s) - covered
    return out
