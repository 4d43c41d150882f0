"""The serve-mix workload: an open-loop served sweep, then a burst.

The ``repro serve`` daemon runs in this process (``BackgroundServer``)
with process workers that fork from it.  A load generator of two
threads drives it through :class:`repro.serve.ServeClient`: one thread
submits jobs when they are due, the other polls them and fetches each
result, so at most two connections are open at any time.

Phase A sends seeded Poisson arrivals at a fixed rate.  Most are fresh
specs, which a worker simulates and writes to its store shard; a fixed
share are digests written into the sharded store during set-up, which
the daemon answers ``cached`` at admission.  Phase B submits bursts of
fresh jobs at once -- served sweeps -- and times each job from the
burst's submit until its result is fetched.  The two phases alternate:
phase A runs in as many segments as there are bursts, each segment
followed by one burst, so the bursts are spread over the whole run.
The host's speed is probed just before and just after every burst,
when no job is outstanding; phase B's times are given at the reference
speed.  (A probe taken while the poller and the daemon's threads are
busy measures the interpreter lock as well as the host.)
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from e2e.hostspeed import SpeedTrack
from e2e.trace import Tracer, now

WORKERS = 2
#: (name, fair-share weight); buckets never refuse the offered load
TENANTS = (("alpha", 2.0), ("beta", 1.0))
RATE_PER_S = 20.0  #: phase A arrival rate, about 20% of burst capacity
PHASE_A_SHARE = 0.45  #: of --seconds spent in phase A
CACHED_SHARE = 0.15  #: phase A arrivals that hit a pre-filled digest
PREFILL = 150  #: entries written into the sharded store before boot
BURSTS = 8
BURST_JOBS = 100
POLL_S = 0.004  #: poller pause between rounds of status calls
POLL_BATCH = 4  #: oldest outstanding jobs polled per round
#: spec seeds are drawn from this pool; the reference covers all of it
SEED_POOL = 4096


def make_spec(seed: int) -> Any:
    """The small served job: EP, 4 threads, 20 ms of compute, 2 cores."""
    from repro.apps.workloads import AppSpec
    from repro.harness.parallel import RunSpec

    app = AppSpec(bench="ep.C", n_threads=4, wait="yield", total_compute_us=20_000)
    return RunSpec.make("tigerton", app, balancer="speed", cores=2, seed=seed)


def boot_daemon(store_root: Path, runner: Any = None) -> tuple[Any, Any]:
    """Start the daemon on an ephemeral port; (server, client)."""
    from repro.serve import BackgroundServer, ServeClient, ServeConfig, TenantConfig

    config = ServeConfig(
        store_root=str(store_root),
        port=0,
        workers=WORKERS,
        backend="process",
        tenants=tuple(
            TenantConfig(name, weight=w, rate=1e6, burst=1e6, queue_limit=100_000)
            for name, w in TENANTS
        ),
        runner=runner,
    )
    server = BackgroundServer(config).start()
    return server, ServeClient(server.base_url)


@dataclass
class Arrival:
    due: float  #: offset from phase start, seconds
    tenant: str
    seed: int
    prefilled: bool
    segment: int  #: the phase A segment (and the burst after it) it belongs to


@dataclass
class Plan:
    """Everything the workload seed decides."""

    prefill: list[int]
    arrivals: list[Arrival]
    bursts: list[tuple[str, list[int]]]  #: (tenant, spec seeds) per burst
    segment_s: float  #: length of one phase A segment


def make_plan(workload_seed: int, seconds: float) -> Plan:
    rng = random.Random(f"serve-mix:{workload_seed}")
    pool = list(range(SEED_POOL))
    rng.shuffle(pool)
    prefill, fresh = pool[:PREFILL], iter(pool[PREFILL:])
    dues = []
    t = rng.expovariate(RATE_PER_S)
    while t < PHASE_A_SHARE * seconds:
        dues.append(t)
        t += rng.expovariate(RATE_PER_S)
    n_cached = min(PREFILL, round(CACHED_SHARE * len(dues)))
    cached_at = set(rng.sample(range(len(dues)), n_cached))
    cached_seeds = iter(rng.sample(prefill, n_cached))
    names = [n for n, _ in TENANTS]
    weights = [w for _, w in TENANTS]
    segment_s = PHASE_A_SHARE * seconds / BURSTS
    arrivals = [
        Arrival(
            due=d,
            tenant=rng.choices(names, weights)[0],
            seed=next(cached_seeds) if i in cached_at else next(fresh),
            prefilled=i in cached_at,
            segment=min(int(d // segment_s), BURSTS - 1),
        )
        for i, d in enumerate(dues)
    ]
    # one tenant per burst, taking turns: the daemon runs a tenant's
    # queue in order, so the poller, which watches the oldest jobs, sees
    # each job finish when it does; with both tenants in one burst the
    # fair share interleaves them and the later batch's finished jobs
    # would wait for the earlier batch
    bursts = [
        (names[k % len(names)], [next(fresh) for _ in range(BURST_JOBS)])
        for k in range(BURSTS)
    ]
    return Plan(prefill=prefill, arrivals=arrivals, bursts=bursts, segment_s=segment_s)


def prefill_store(store_root: Path, seeds: list[int]) -> None:
    """Write finished results into the shards the daemon will serve."""
    from repro.harness.parallel import run_spec
    from repro.serve import ShardedStore
    from repro.store import spec_digest

    store = ShardedStore(store_root, WORKERS)
    for s in seeds:
        spec = make_spec(s)
        store.shard_for(spec_digest(spec)).put(spec, run_spec(spec))


@dataclass
class Job:
    spec: Any
    seed: int
    tenant: str
    due: float  #: absolute monotonic time the job was due
    prefilled: bool = False
    digest: str = ""
    sent: float = 0.0
    state_at_submit: str = ""
    done: Optional[float] = None
    payload: Optional[dict] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and self.done is not None


@dataclass
class LoadGen:
    """Two threads, at most two open connections."""

    client: Any
    polls: int = 0

    def run(self, batches: list[tuple[float, list[Job]]]) -> None:
        """Send each batch at its due time and wait for every result.

        ``batches`` are (absolute due time, jobs of one tenant); a
        batch of one is an open-loop arrival, a larger one a burst.
        """
        from repro.serve import ServeError

        handoff: queue.Queue = queue.Queue()
        poller = threading.Thread(target=self._poll, args=(handoff,),
                                  name="perfbench-poller", daemon=True)
        poller.start()
        try:
            for due, jobs in batches:
                delay = due - now()
                if delay > 0:
                    time.sleep(delay)
                sent = now()
                for j in jobs:
                    j.sent = sent
                try:
                    resp = self.client.submit(
                        [j.spec for j in jobs], tenant=jobs[0].tenant
                    )
                except (ServeError, OSError) as exc:
                    for j in jobs:
                        j.error = f"submit: {exc}"
                    continue
                for j, view in zip(jobs, resp["jobs"]):
                    j.digest, j.state_at_submit = view["digest"], view["state"]
                    handoff.put(j)
        finally:
            handoff.put(None)
            poller.join(timeout=120)
        if poller.is_alive():
            raise RuntimeError("the result poller did not finish within 120 s")

    def _poll(self, handoff: queue.Queue) -> None:
        from repro.serve import ServeError

        outstanding: list[Job] = []
        closed = False
        while True:
            # take whatever was handed off; block only when idle
            while not closed:
                try:
                    item = handoff.get(block=not outstanding)
                except queue.Empty:
                    break
                if item is None:
                    closed = True
                else:
                    outstanding.append(item)
            if not outstanding:
                return
            finished = []
            for j in outstanding[:POLL_BATCH]:
                try:
                    state = self.client.status(j.digest)["state"]
                    self.polls += 1
                    if state == "failed":
                        j.error = "job failed"
                    elif state in ("done", "cached"):
                        j.payload = self.client.result(j.digest)
                        j.done = now()
                    else:
                        continue
                except (ServeError, OSError) as exc:
                    j.error = f"poll: {exc}"
                finished.append(j)
            for j in finished:
                outstanding.remove(j)
            if not finished:
                time.sleep(POLL_S)


class TracedRunner:
    """The worker's job runner with a span keyed by the job's digest.

    Passed as ``ServeConfig.runner``; the process backend forks, so the
    workers inherit this object and the tracer's wrappers.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __call__(self, spec: Any) -> Any:
        from repro.harness.parallel import run_spec
        from repro.store import spec_digest

        key = spec_digest(spec)
        return self.tracer.current().span("worker.run_spec", run_spec, (spec,), {}, key)


@dataclass
class Session:
    jobs_a: list[Job]
    bursts: list[list[Job]]
    burst_walls: list[float]
    #: host-speed probes just before and just after every burst
    track: SpeedTrack
    #: per phase A segment: (start, end) on the span clock and
    #: /v1/metrics before and after it
    segments: list[tuple[float, float, dict, dict]]
    metrics: tuple[dict, dict]  #: /v1/metrics after boot and at the end
    rss_mb: float
    entries: int
    polls: int


def _digest_key(_store: Any, digest_or_spec: Any, *args: Any, **kwargs: Any) -> Any:
    from repro.store import spec_digest

    return digest_or_spec if isinstance(digest_or_spec, str) else spec_digest(digest_or_spec)


def install_spans(tracer: Tracer) -> None:
    """Spans at the client, daemon and worker calls of one job.

    Installed before the daemon forks its workers, so the workers'
    ``run_app`` and store calls are recorded as well.
    """
    from repro.harness import parallel
    from repro.serve import ServeClient
    from repro.serve import server as server_module
    from repro.store import ResultStore, spec_digest

    tracer.wrap(parallel, "run_app", "run_app")
    tracer.wrap(ResultStore, "get", "store.get", key_fn=_digest_key)
    tracer.wrap(ResultStore, "put", "store.put", key_fn=_digest_key)
    tracer.wrap(server_module, "wire_digest", "keys.wire_digest")
    tracer.wrap(ServeClient, "submit", "client.submit",
                key_fn=lambda _c, specs, *a, **k: spec_digest(specs[0]))
    tracer.wrap(ServeClient, "status", "client.status",
                key_fn=lambda _c, digest: digest)
    tracer.wrap(ServeClient, "result", "client.result",
                key_fn=lambda _c, digest: digest)


def run_session(plan: Plan, work: Path, tracer: Optional[Tracer],
                spans: bool) -> Session:
    """Pre-fill, boot, phase A, phase B, drain -- one daemon lifetime.

    With a ``tracer`` every worker counts its runs; with ``spans`` as
    well, the calls of each job are recorded too.
    """
    from repro.harness import parallel
    from repro.serve import ShardedStore

    from e2e.common import child_pids, peak_rss_mb

    store_root = work / "store"
    prefill_store(store_root, plan.prefill)
    runner = None
    if tracer is not None:
        if spans:
            install_spans(tracer)
            runner = TracedRunner(tracer)
        # outside the run_app span, so the span leaves out the counting
        tracer.count_runs(parallel)
    try:
        server, client = boot_daemon(store_root, runner)
        try:
            client.healthz()
            gen = LoadGen(client)
            track = SpeedTrack()
            first = before = client.metrics()
            phase_a, segments, bursts, walls = [], [], [], []
            for k, (tenant, seeds) in enumerate(plan.bursts):
                t0 = now() + 0.05
                jobs_a = [
                    Job(spec=make_spec(a.seed), seed=a.seed, tenant=a.tenant,
                        due=t0 + a.due - k * plan.segment_s, prefilled=a.prefilled)
                    for a in plan.arrivals if a.segment == k
                ]
                gen.run([(j.due, [j]) for j in jobs_a])
                after = client.metrics()
                segments.append((t0, now(), before, after))
                phase_a += jobs_a
                track.probe()
                start = now()
                jobs = [Job(spec=make_spec(s), seed=s, tenant=tenant, due=start)
                        for s in seeds]
                gen.run([(start, jobs)])
                walls.append(max((j.done or now()) for j in jobs) - start)
                track.probe()
                bursts.append(jobs)
                before = client.metrics()
            rss = peak_rss_mb(child_pids())
        finally:
            server.drain()
    finally:
        if tracer is not None:
            tracer.unpatch()
    entries = len(ShardedStore(store_root, WORKERS).digests())
    return Session(phase_a, bursts, walls, track, segments, (first, before), rss,
                   entries, gen.polls)


def check_jobs(session: Session, reference: list[str]) -> list[str]:
    """Jobs that failed, came back wrong, or missed the cache they should hit."""
    from repro.analysis.sanitizer import run_digest
    from repro.metrics.export import result_from_dict

    wrong = []
    for j in session.jobs_a + [j for b in session.bursts for j in b]:
        if not j.ok:
            wrong.append(f"seed {j.seed}: {j.error or 'no result'}")
            continue
        got = run_digest(result=result_from_dict(j.payload["result"]))[:16]
        if got != reference[j.seed]:
            wrong.append(f"seed {j.seed}: result {got}, reference {reference[j.seed]}")
        elif j.prefilled and j.state_at_submit != "cached":
            wrong.append(f"seed {j.seed}: pre-filled digest came back "
                         f"{j.state_at_submit!r}, not 'cached'")
    return wrong


def busy_s(m: dict) -> float:
    return sum(m["workers"]["busy_s"].values())
