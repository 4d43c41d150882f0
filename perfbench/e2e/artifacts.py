"""The artifact workloads: paper figures regenerated into an empty store.

Each regeneration calls the public scenario function once per series
of the figure, with ``store=`` pointing at a fresh empty directory,
exactly as a user rebuilding the figure would.  The engine is whatever
that path uses by default.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Optional

from e2e import common
from e2e.hostspeed import SpeedTrack
from e2e.trace import Sampler, Tracer, now, result_digest, sum_counts

#: artifact seeds are drawn from this pool; the reference covers all of it
SEED_POOL = 48


@dataclass(frozen=True)
class Artifact:
    name: str
    function: str  #: scenario function in repro.harness.scenarios
    #: (label, keyword arguments) per series of the figure
    series: tuple[tuple[str, dict], ...]
    core_counts: tuple[int, ...]
    seeds_per_run: int
    #: wall time of one regeneration on the 2-vCPU review host, seconds;
    #: a run makes as many as fit in --seconds at that speed (at least
    #: one), so the amount of work does not depend on the host's speed
    regeneration_s: float
    params: dict = field(default_factory=dict)

    def regenerations(self, seconds: float) -> int:
        return max(1, int(seconds // self.regeneration_s))

    def seeds(self, workload_seed: int) -> list[int]:
        """The artifact seeds one workload seed selects."""
        rng = random.Random(f"{self.name}:{workload_seed}")
        return sorted(rng.sample(range(SEED_POOL), self.seeds_per_run))


ARTIFACTS = {
    # Figure 3 (left): EP, 16 threads, Tigerton, the test suite's core counts
    "fig3-yield": Artifact(
        name="fig3-yield",
        function="ep_speedup_series",
        series=(
            ("One-per-core", dict(balancer="pinned", wait="sleep", one_per_core=True)),
            ("SPEED", dict(balancer="speed", wait="yield")),
            ("DWRR", dict(balancer="dwrr", wait="yield")),
            ("FreeBSD", dict(balancer="ule", wait="yield")),
            ("LOAD-SLEEP", dict(balancer="load", wait="sleep")),
            ("LOAD-YIELD", dict(balancer="load", wait="yield")),
            ("PINNED", dict(balancer="pinned", wait="yield")),
        ),
        core_counts=(1, 2, 4, 6, 8, 10, 12, 14, 15, 16),
        seeds_per_run=8,
        regeneration_s=28.0,
        params=dict(machine="tigerton", total_compute_us=125_000),
    ),
    # Figure 5: EP with sleeping waiters beside a cpu-hog on core 0
    "fig5-hog": Artifact(
        name="fig5-hog",
        function="cpu_hog_series",
        series=(
            ("One-per-core", dict(balancer="pinned", one_per_core=True)),
            ("SPEED", dict(balancer="speed")),
            ("LOAD", dict(balancer="load")),
            ("PINNED", dict(balancer="pinned")),
        ),
        core_counts=(2, 4, 8, 12, 16),
        seeds_per_run=8,
        regeneration_s=12.0,
        params=dict(machine="tigerton", wait="sleep"),
    ),
}


@dataclass
class Regeneration:
    wall_s: float  #: less the host-speed probes taken inside it
    #: (series label, n_cores, seed) -> (digest, counts row)
    cells: dict
    job_walls: list[float]  #: one per simulated cell: its run_app wall time
    counts: dict
    entries: int
    #: the host's speed over the regeneration (1.0 without a track)
    speed: float = 1.0


def probe_after_runs(tracer: Tracer, parallel: Any, track: SpeedTrack) -> None:
    """Probe the host's speed after every ``run_app``, outside its timing."""
    original = parallel.run_app

    def probed_run_app(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            track.probe()

    probed_run_app.__wrapped__ = original
    tracer.patch(parallel, "run_app", probed_run_app)


def regenerate(art: Artifact, seeds: list[int], tracer: Tracer,
               traced: bool = False, track: Optional[SpeedTrack] = None) -> Regeneration:
    """One cold regeneration of the whole figure.

    With a ``track``, the host's speed is probed just before and just
    after, and (through :func:`probe_after_runs`) between cells.
    """
    from repro.harness import scenarios
    from repro.store import ResultStore

    fn = getattr(scenarios, art.function)
    store_dir = common.scratch_dir(f"{art.name}-store")
    try:
        tracer.counts = []
        per_series = []
        if track is not None:
            first = len(track)
            track.probe()
        start = now()
        for label, kwargs in art.series:
            call_kwargs = dict(
                art.params, **kwargs, core_counts=art.core_counts,
                seeds=seeds, store=str(store_dir),
            )
            if traced:
                result = tracer.span("scenario", fn, (), call_kwargs)
            else:
                result = fn(**call_kwargs)
            per_series.append((label, result))
        end = now()
        speed = 1.0
        if track is not None:
            track.probe()
            speed = track.speed(first, len(track) - 1)
            end -= track.probing_s(start, end)
        entries = len(ResultStore(store_dir).digests())
    finally:
        common.remove_scratch(store_dir)
    # a cell two series share runs once; the second is a store hit
    by_digest = {r["digest"]: r for r in tracer.counts}
    cells = {}
    for label, result in per_series:
        for n_cores, rep in result.items():
            for run in rep.runs:
                digest = result_digest(run)
                cells[(label, n_cores, run.seed)] = (digest, by_digest[digest])
    return Regeneration(
        wall_s=end - start,
        cells=cells,
        job_walls=[r["wall_s"] for r in tracer.counts],
        counts=sum_counts(tracer.counts),
        entries=entries,
        speed=speed,
    )


def check_reference(art: Artifact, regen: Regeneration, ref: dict) -> list[str]:
    """Cells whose digest or event count differs from the reference."""
    wrong = []
    table = ref[art.name]
    for (label, n_cores, seed), (digest, row) in sorted(regen.cells.items()):
        want = table[label][str(n_cores)][str(seed)]
        if [digest, row["sim.events"]] != want:
            wrong.append(
                f"{label} cores={n_cores} seed={seed}: got {digest}/"
                f"{row['sim.events']} events, reference {want[0]}/{want[1]}"
            )
    return wrong


def combined_digest(regen: Regeneration) -> str:
    h = hashlib.sha256()
    for key in sorted(regen.cells):
        h.update(f"{key}:{regen.cells[key][0]}\n".encode())
    return h.hexdigest()[:16]


def expected_cells(art: Artifact, seeds: list[int]) -> int:
    return len(art.series) * len(art.core_counts) * len(seeds)


def install_spans(tracer: Tracer) -> None:
    """Spans at the public calls one regeneration goes through."""
    import repro.service
    import repro.service.jobs as jobs
    from repro.harness import parallel
    from repro.store import ResultStore

    tracer.wrap(repro.service, "run_specs_cached", "service.run_specs_cached")
    tracer.wrap(jobs.JobService, "submit", "service.submit")
    tracer.wrap(jobs, "spec_digest", "keys.spec_digest")
    tracer.wrap(ResultStore, "get", "store.get")
    tracer.wrap(ResultStore, "put", "store.put")
    tracer.wrap(parallel, "run_app", "run_app")


def run_anchor() -> Any:
    from repro.harness.experiment import run_app

    return run_app.__code__


def main_sampler() -> Sampler:
    import threading

    return Sampler(threading.main_thread().ident, run_anchor())
