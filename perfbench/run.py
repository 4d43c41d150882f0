"""End-to-end benchmark of the repro simulator.

    python3 perfbench/run.py --workload fig3-yield|fig5-hog|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` makes one untraced and one traced
pass and reports the per-layer metrics, the tracing overhead and the
time no layer accounts for.  Human-readable lines go first; the last
line of standard output is one JSON object.  Exits 0 on a result
(correct or not) and 2 when no result can be produced.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from e2e import common
from e2e.stats import due_latencies, hd_percentile, percentile, tail, union_length

WORKLOADS = ("fig3-yield", "fig5-hog", "serve-mix")

#: (name, unit); the end-to-end metrics every workload reports
END_TO_END = (
    ("artifact_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

MIGRATION_CAUSES = (
    "linux.smt", "linux.cache", "linux.socket", "linux.machine", "linux.numa",
    "ule.push", "ule.steal", "dwrr.steal", "speed.initial", "speed.pull",
)

#: (name, unit); the per-layer metrics of a traced run, measured on every
#: workload.  Figures only serve-mix has (client calls, queue wait,
#: generator lag) are printed in its text output instead, so that no
#: time here reads 0 by construction.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.cancelled_frac", "ratio"),
    ("sim.self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sched.self_s", "s"),
    ("sched.context_switches", "count"),
    ("sched.dispatches", "count"),
    ("sched.spin_frac", "ratio"),
    ("balance.self_s", "s"),
    ("balance.attempts", "count"),
    ("balance.pulls", "count"),
    ("balance.pull_frac", "ratio"),
    ("core.self_s", "s"),
    ("core.wakeups", "count"),
    ("core.pulls", "count"),
    ("core.pull_frac", "ratio"),
    ("apps.self_s", "s"),
    ("system.self_s", "s"),
    ("topology.self_s", "s"),
    ("other.self_s", "s"),
    *((f"system.migrations.{c}", "count") for c in MIGRATION_CAUSES),
    ("system.migrations.other", "count"),
    ("harness.self_s", "s"),
    ("harness.run_app_s", "s"),
    ("keys.digest_s", "s"),
    ("store.puts", "count"),
    ("store.put_s", "s"),
    ("store.put_ms_last", "ms"),
    ("store.gets", "count"),
    ("store.get_s", "s"),
    ("store.entries", "count"),
    ("worker.sim_ms_per_job", "ms"),
    ("worker.put_ms_per_job", "ms"),
    ("worker.busy_ms_per_job", "ms"),
    ("worker.utilization", "ratio"),
    ("serve.cache_hit_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.samples", "count"),
)

#: packages whose share of ``run_app`` is reported under their own name;
#: the rest (mem, metrics, ...) is "other"
SAMPLED = ("sim", "sched", "balance", "core", "apps", "system", "topology", "harness")

#: self-time buckets no named layer explains, which count against the
#: coverage limit: ``run_app`` time charged outside SAMPLED or left
#: unsampled, and the scenario function's own time outside every
#: wrapped call
UNEXPLAINED = ("other", "unsampled", "scenario")

#: the unattributed share of traced wall time a run may leave
COVERAGE_LIMIT = {"fig3-yield": 0.05, "fig5-hog": 0.05, "serve-mix": 0.35}

#: fresh interpreters set up per run; setup_s is their median
SETUP_REPEATS = 9


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Result:
    """What one run reports: metrics, counts, and every failed check."""

    def __init__(self, names: tuple):
        self.units = dict(names)
        self.values: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def set(self, name: str, value: float) -> None:
        if name not in self.units:
            raise KeyError(f"undeclared metric {name!r}")
        self.values[name] = float(value)

    def emit(self) -> None:
        missing = sorted(set(self.units) - set(self.values))
        if missing:
            self.problems.append(f"metrics not measured: {missing}")
        for p in self.problems:
            print(f"CHECK FAILED: {p}")
        print(json.dumps({
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                k: {"value": self.values.get(k, 0.0), "unit": u}
                for k, u in self.units.items()
            },
        }))


def span_layer(name: str) -> str:
    return {"worker.run_spec": "harness"}.get(name, name.split(".", 1)[0])


def layer_self_times(spans: list, samples: dict) -> dict:
    """Self time per layer; ``run_app`` self time is split by samples.

    Each span's self time goes to its layer.  ``run_app``'s is shared
    out in proportion to the stack samples taken inside it: samples in
    a SAMPLED package go to that package, the rest to "other", and with
    no samples at all the time is "unsampled".
    """
    from e2e.stats import self_times

    selfs = self_times([(s[0], s[1], s[3], s[4]) for s in spans])
    out: dict = {}
    run_app_s = 0.0
    for s in spans:
        if s[2] == "run_app":
            run_app_s += selfs[s[0]]
        else:
            layer = span_layer(s[2])
            out[layer] = out.get(layer, 0.0) + selfs[s[0]]
    total = sum(samples.values())
    for layer, n in samples.items():
        key = layer if layer in SAMPLED else "other"
        out[key] = out.get(key, 0.0) + run_app_s * _ratio(n, total)
    if not total and run_app_s:
        out["unsampled"] = out.get("unsampled", 0.0) + run_app_s
    return out


def attributed_s(layers: dict) -> float:
    """The part of the layers' self time that a named layer explains."""
    return sum(t for k, t in layers.items() if k not in UNEXPLAINED)


def count_metrics(res: Result, counts: dict) -> None:
    res.set("sim.events", counts.get("sim.events", 0))
    res.set("sim.cancelled_frac",
            1 - _ratio(counts.get("sim.events", 0), counts.get("sim.scheduled", 0))
            if counts.get("sim.scheduled") else 0.0)
    for k in ("sched.context_switches", "sched.dispatches", "balance.attempts",
              "balance.pulls", "core.wakeups", "core.pulls"):
        res.set(k, counts.get(k, 0))
    res.set("sched.spin_frac", _ratio(counts.get("sched.spin_us", 0),
                                      counts.get("sched.busy_us", 0)))
    res.set("balance.pull_frac", _ratio(counts.get("balance.pulls", 0),
                                        counts.get("balance.attempts", 0)))
    res.set("core.pull_frac", _ratio(counts.get("core.pulls", 0),
                                     counts.get("core.wakeups", 0)))
    other = 0
    for k, v in counts.items():
        if k.startswith("system.migrations."):
            if k[len("system.migrations."):] in MIGRATION_CAUSES:
                res.set(k, v)
            else:
                other += v
    res.set("system.migrations.other", other)
    for c in MIGRATION_CAUSES:
        res.values.setdefault(f"system.migrations.{c}", 0.0)


def store_metrics(res: Result, spans: list, entries: int) -> None:
    puts = sorted((s for s in spans if s[2] == "store.put"), key=lambda s: s[3])
    gets = [s for s in spans if s[2] == "store.get"]
    res.set("store.puts", len(puts))
    res.set("store.put_s", sum(s[4] - s[3] for s in puts))
    last = puts[-max(1, len(puts) // 10):] if puts else []
    res.set("store.put_ms_last",
            1000 * statistics.fmean(s[4] - s[3] for s in last) if last else 0.0)
    res.set("store.gets", len(gets))
    res.set("store.get_s", sum(s[4] - s[3] for s in gets))
    res.set("store.entries", entries)


def layer_time_metrics(res: Result, layers: dict) -> None:
    for name in ("sim", "sched", "balance", "core", "apps", "system", "topology", "other"):
        res.set(f"{name}.self_s", layers.get(name, 0.0))
    # the plumbing around run_app: scenario, repeat_run, the job service
    res.set("harness.self_s", layers.get("harness", 0.0) + layers.get("service", 0.0))
    res.set("keys.digest_s", layers.get("keys", 0.0))


def coverage(res: Result, workload: str, wall: float, attributed: float) -> None:
    rem = wall - attributed
    res.set("trace.wall_s", wall)
    res.set("trace.unattributed_s", rem)
    res.set("trace.unattributed_frac", _ratio(rem, wall))
    limit = COVERAGE_LIMIT[workload]
    print(f"coverage: layers account for {attributed:.3f} s of {wall:.3f} s "
          f"traced; unattributed {rem:.3f} s ({_ratio(rem, wall):.1%}, limit {limit:.0%})")
    if abs(_ratio(rem, wall)) > limit:
        res.problems.append(
            f"per-layer self times leave {_ratio(rem, wall):.1%} of the traced "
            f"wall time unattributed (limit {limit:.0%})"
        )


def tripwire(res: Result, workload: str, seed: int, inputs: object, counts: dict) -> None:
    program = common.program_hash()
    for moved in common.check_counts(workload, seed, repr(inputs), counts, program):
        res.problems.append(f"exact count moved for seed {seed}: {moved}")


# ----------------------------------------------------------------------
# artifact workloads
# ----------------------------------------------------------------------
def run_artifact(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    from repro.harness import parallel

    from e2e import artifacts
    from e2e.hostspeed import SpeedTrack
    from e2e.trace import Tracer

    art = artifacts.ARTIFACTS[workload]
    seeds = art.seeds(seed)
    reference = common.load_reference()
    tracer = Tracer()
    tracer.count_runs(parallel)
    res = Result(PER_LAYER if trace else END_TO_END)
    print(f"workload {workload}: {art.function} x {len(art.series)} series, "
          f"cores {list(art.core_counts)}, artifact seeds {seeds}, "
          f"engine {_engine()}")

    track = SpeedTrack()
    artifacts.probe_after_runs(tracer, parallel, track)
    reps = []
    for _ in range(1 if trace else art.regenerations(seconds)):
        reps.append(artifacts.regenerate(art, seeds, tracer, track=track))
        print(f"  regeneration {len(reps)}: {reps[-1].wall_s:.3f} s at host speed "
              f"{reps[-1].speed:.3f}")
    traced = None
    if trace:
        # count outside the run_app span, so the span leaves out the counting
        tracer.unpatch()
        artifacts.install_spans(tracer)
        tracer.count_runs(parallel)
        sampler = artifacts.main_sampler().start()
        try:
            traced = artifacts.regenerate(art, seeds, tracer, traced=True)
        finally:
            sampler.stop()
            spans = tracer.spans
            tracer.unpatch()
        print(f"  traced regeneration: {traced.wall_s:.3f} s, "
              f"{sampler.total} samples; inside run_app by package: "
              f"{dict(sampler.counts.most_common())}")
        reps.append(traced)

    cells = artifacts.expected_cells(art, seeds)
    for i, regen in enumerate(reps):
        res.attempted += cells
        wrong = artifacts.check_reference(art, regen, reference)
        wrong += ["missing cell"] * (cells - len(regen.cells))
        res.failed += len(wrong)
        for w in wrong[:5]:
            res.problems.append(f"regeneration {i + 1}: wrong output: {w}")
    counts = dict(reps[0].counts, **{"store.entries": reps[0].entries})
    for moved in common.compare_reps(
        [dict(r.counts, **{"store.entries": r.entries}) for r in reps]
    ):
        res.problems.append(f"exact count moved within the run: {moved}")
    tripwire(res, workload, seed, (art, seeds), counts)
    events = counts["sim.events"]
    print(f"  output: combined run digest {artifacts.combined_digest(reps[0])}, "
          f"{events} events over {cells} cells; failed {res.failed}/{res.attempted}")

    untraced = [r for r in reps if r is not traced]
    if not trace:
        # times at the reference host speed (see e2e/hostspeed.py): each
        # regeneration, and the cells in it, scaled by its host speed
        print(f"  {track.summary()}")
        walls = [r.wall_s * r.speed for r in untraced]
        # the mean, not the median: the middle one of two or three
        # regenerations measures a third of the run, the mean all of it
        res.set("artifact_s", statistics.fmean(walls))
        # the job a user of an artifact submits is the regeneration; with
        # fewer than 20 of them the tail rule falls back to the median.
        # Single cells are printed, not gated: on a host whose speed flips
        # within a second, their percentiles spread 13-20% from run to run
        p, tail_ms, n = tail([1000 * w for w in walls])
        res.set("job_p50_ms", hd_percentile([1000 * w for w in walls], 50))
        res.set("job_tail_ms", tail_ms)
        cell_ms = [1000 * w * r.speed for r in untraced for w in r.job_walls]
        res.set("peak_rss_mb", common.peak_rss_mb())
        setup, setup_walls, setup_speeds = common.setup_probe("artifact", SETUP_REPEATS)
        res.set("setup_s", setup)
        print(f"  artifact_s mean of {len(walls)}: {res.values['artifact_s']:.3f} s "
              f"({cells / res.values['artifact_s']:.1f} cells/s); wall "
              f"{statistics.fmean(r.wall_s for r in untraced):.3f} s")
        cp, cell_tail, cn = tail(cell_ms)
        print(f"  job (one regeneration) latency: p50 {res.values['job_p50_ms']:.1f} ms, "
              f"tail p{p:g} {tail_ms:.1f} ms over {n}; one simulated cell (not gated): "
              f"p50 {hd_percentile(cell_ms, 50):.2f} ms, tail p{cp:g} {cell_tail:.2f} ms "
              f"over {cn}")
        _print_setup(setup_walls, setup_speeds)
        return res

    layers = layer_self_times(spans, dict(sampler.counts))
    count_metrics(res, counts)
    res.set("sim.ns_per_event", 1e9 * _ratio(sum(untraced[0].job_walls), events))
    res.set("harness.run_app_s",
            sum(s[4] - s[3] for s in spans if s[2] == "run_app"))
    layer_time_metrics(res, layers)
    store_metrics(res, spans, traced.entries)
    # the benchmark process is the artifact workloads' only worker
    run_apps = [s for s in spans if s[2] == "run_app"]
    stored = sum(s[4] - s[3] for s in spans if s[2].startswith("store."))
    res.set("worker.sim_ms_per_job", _ms_mean(run_apps))
    res.set("worker.put_ms_per_job", _ms_mean([s for s in spans if s[2] == "store.put"]))
    res.set("worker.busy_ms_per_job", 1000 * _ratio(traced.wall_s, len(run_apps)))
    res.set("worker.utilization",
            _ratio(sum(s[4] - s[3] for s in run_apps) + stored, traced.wall_s))
    res.set("serve.cache_hit_frac", _ratio(cells - len(run_apps), cells))
    res.set("trace.overhead_s", traced.wall_s - untraced[0].wall_s)
    res.set("trace.samples", sampler.total)
    coverage(res, workload, traced.wall_s, attributed_s(layers))
    _print_layers(layers, traced.wall_s)
    return res


def _print_layers(layers: dict, wall: float = 0.0) -> None:
    for name, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        share = f"  {_ratio(t, wall):6.1%}" if wall else ""
        print(f"  layer {name:8s} {t:8.3f} s{share}")


def _print_setup(walls: list[float], speeds: list[float]) -> None:
    print(f"  setup_s: median of walls {[round(w, 4) for w in walls]} s "
          f"at host speeds {[round(v, 3) for v in speeds]}")


def _engine() -> str:
    import inspect

    from repro.harness.parallel import RunSpec

    return inspect.signature(RunSpec.make).parameters["engine"].default


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
def session_counts(session) -> dict:
    """Exact counts of one daemon lifetime, from /v1/metrics and the store."""
    first, last = session.metrics
    out = {f"serve.{k}": last[k] - first[k]
           for k in ("completed", "cached", "executed", "rejected")}
    out["store.entries"] = session.entries
    return out


def run_serve(seed: int, seconds: float, trace: bool) -> Result:
    from e2e import servemix as sm
    from e2e.artifacts import run_anchor
    from e2e.trace import Tracer, load_worker_dumps, sum_counts

    plan = sm.make_plan(seed, seconds)
    reference = common.load_reference()["serve-mix"]
    res = Result(PER_LAYER if trace else END_TO_END)
    print(f"workload serve-mix: {sm.WORKERS} process workers, tenants {sm.TENANTS}, "
          f"engine {_engine()}; phase A {len(plan.arrivals)} Poisson arrivals at "
          f"{sm.RATE_PER_S:g}/s ({sum(a.prefilled for a in plan.arrivals)} "
          f"pre-filled), phase B {sm.BURSTS} bursts of {sm.BURST_JOBS}; store "
          f"pre-filled with {len(plan.prefill)} entries")

    # --trace 1: an untraced session first, for the overhead and the
    # untraced run_app times; the workers count their runs in both
    sessions, tracer, dumps = [], None, []
    for traced in ([False, True] if trace else [False]):
        work = common.scratch_dir("serve")
        try:
            if trace:
                tracer = Tracer(dump_dir=work,
                                sample_anchor=run_anchor() if traced else None)
            sessions.append(sm.run_session(plan, work, tracer, spans=traced))
            if trace:
                dumps.append(load_worker_dumps(work))
        finally:
            common.remove_scratch(work)

    for session in sessions:
        res.attempted += len(session.jobs_a) + sum(len(b) for b in session.bursts)
        wrong = sm.check_jobs(session, reference)
        res.failed += len(wrong)
        res.problems += [f"wrong or failed job: {w}" for w in wrong[:5]]
    per_pass = [session_counts(s) for s in sessions]
    for c, worker_dumps in zip(per_pass, dumps):
        c.update(sum_counts([row for d in worker_dumps for row in d["counts"]]))
    for moved in common.compare_reps(per_pass):
        res.problems.append(f"exact count moved between passes: {moved}")
    counts = per_pass[0]
    tripwire(res, "serve-mix", seed, plan, counts)

    base = sessions[0]
    lat_a, failed_a = _latencies_ms(base.jobs_a)
    p, tail_ms, n = tail(lat_a, failed=failed_a)
    print(f"  phase A (open loop, not gated): p50 {percentile(lat_a, 50):.2f} ms, "
          f"tail p{p:g} {tail_ms:.2f} ms over {n} jobs, {failed_a} failed; "
          f"{base.polls} status polls in the whole session")
    lat_b, failed_b = _latencies_ms([j for b in base.bursts for j in b])
    p, tail_ms, n = tail(lat_b, failed=failed_b)
    p50_b = hd_percentile(lat_b + [float("inf")] * failed_b, 50)
    print(f"  phase B burst walls {[round(w, 4) for w in base.burst_walls]} s, "
          f"{sum(base.burst_walls):.3f} s in all "
          f"({sm.BURSTS * sm.BURST_JOBS / sum(base.burst_walls):.1f} jobs/s); "
          f"job latency p50 {p50_b:.2f} ms, tail p{p:g} {tail_ms:.2f} ms over {n} jobs")
    print(f"  failed {res.failed}/{res.attempted}")
    if trace:
        serve_layers(res, sessions, tracer.spans, dumps, counts)
        return res
    # times at the reference host speed (see e2e/hostspeed.py), over the
    # whole session; all the bursts, spread over the run, not the median
    # one: burst walls grow with the store, so the median would be one
    # or two bursts from the middle of the run
    speed = base.track.speed()
    print(f"  {base.track.summary()}")
    res.set("artifact_s", speed * sum(base.burst_walls))
    res.set("job_p50_ms", speed * p50_b)
    res.set("job_tail_ms", speed * tail_ms)
    res.set("peak_rss_mb", base.rss_mb)
    setup, setup_walls, setup_speeds = common.setup_probe("serve", SETUP_REPEATS)
    res.set("setup_s", setup)
    _print_setup(setup_walls, setup_speeds)
    return res


def _latencies_ms(jobs: list) -> tuple[list[float], int]:
    """Due-time latencies of the jobs that came back, and how many did not."""
    ok = [j for j in jobs if j.ok]
    lat = due_latencies([j.due for j in ok], [j.done for j in ok])
    return [1000 * t for t in lat], len(jobs) - len(ok)


def _ms_p50(spans: list) -> float:
    return percentile([1000 * (s[4] - s[3]) for s in spans], 50) if spans else 0.0


def _ms_mean(spans: list) -> float:
    return 1000 * statistics.fmean(s[4] - s[3] for s in spans) if spans else 0.0


def serve_layers(res: Result, sessions: list, spans: list, dumps: list,
                 counts: dict) -> None:
    """Per-layer metrics of serve-mix from the traced session.

    ``dumps`` holds the workers' dumps of each pass, untraced first.
    """
    from e2e import servemix as sm

    base, ts = sessions
    untraced_dumps, traced_dumps = dumps
    worker_spans: list = []
    samples: dict = {}
    for d in traced_dumps:
        # ids are per process: make them unique before merging
        off = 10 ** 9 * (len(worker_spans) + 1)
        worker_spans += [
            (sid + off, (par + off) if par is not None else None, name, s, e, key)
            for sid, par, name, s, e, key in d["spans"]
        ]
        for k, v in d["samples"].items():
            samples[k] = samples.get(k, 0) + v
    all_spans = spans + worker_spans
    layers = layer_self_times(all_spans, samples)
    count_metrics(res, counts)
    untraced_run_app_s = sum(row["wall_s"] for d in untraced_dumps for row in d["counts"])
    res.set("sim.ns_per_event",
            1e9 * _ratio(untraced_run_app_s, counts.get("sim.events", 0)))
    res.set("harness.run_app_s",
            sum(s[4] - s[3] for s in worker_spans if s[2] == "run_app"))
    layer_time_metrics(res, layers)
    store_metrics(res, all_spans, ts.entries)

    in_worker = {s[0] for s in worker_spans}
    by_key: dict = {}
    for s in all_spans:
        by_key.setdefault(s[5], []).append(s)
    queue_ms, lag_ms = [], []
    attributed = wall = 0.0
    for j in (j for j in ts.jobs_a if j.ok):
        mine = by_key.get(j.digest, [])
        sub = [s for s in mine if s[2] == "client.submit"]
        work = [s for s in mine if s[0] in in_worker]
        covered = [(s[3], s[4]) for s in mine
                   if s[2] in ("client.submit", "client.result") or s[0] in in_worker]
        if work and sub:
            # request, admission, fair-queue wait and IPC up to a worker
            w0, w1 = min(s[3] for s in work), max(s[4] for s in work)
            queue_ms.append(1000 * (w0 - sub[0][3]))
            covered.append((sub[0][3], w0))
            # the poll that saw the job finish
            covered += [(s[3], s[4]) for s in mine
                        if s[2] == "client.status" and s[4] >= w1]
        lag_ms.append(1000 * (j.sent - j.due))
        wall += j.done - j.due
        attributed += (j.sent - j.due) + union_length(covered)

    def over_a(field) -> float:
        """A /v1/metrics figure summed over the phase A segments."""
        return sum(field(m1) - field(m0) for _, _, m0, m1 in ts.segments)

    busy_a = over_a(sm.busy_s)
    print(f"  client.submit_ms_p50 "
          f"{_ms_p50([s for s in spans if s[2] == 'client.submit']):.3f}, "
          f"client.result_ms_p50 "
          f"{_ms_p50([s for s in spans if s[2] == 'client.result']):.3f}, "
          f"serve.queue_wait_ms_p50 {percentile(queue_ms, 50) if queue_ms else 0:.3f}, "
          f"loadgen.lag_p99_ms {percentile(lag_ms, 99) if lag_ms else 0:.3f}")
    # worker figures over phase A, the windows /v1/metrics busy time covers
    in_a = [s for s in worker_spans
            if any(a0 <= s[3] <= a1 for a0, a1, _, _ in ts.segments)]
    res.set("worker.sim_ms_per_job", _ms_mean([s for s in in_a if s[2] == "run_app"]))
    res.set("worker.put_ms_per_job", _ms_mean([s for s in in_a if s[2] == "store.put"]))
    res.set("worker.busy_ms_per_job",
            1000 * _ratio(busy_a, over_a(lambda m: m["executed"])))
    res.set("worker.utilization",
            _ratio(busy_a, sm.WORKERS * sum(a1 - a0 for a0, a1, _, _ in ts.segments)))
    res.set("serve.cache_hit_frac", _ratio(over_a(lambda m: m["cached"]),
                                           over_a(lambda m: m["completed"])))
    res.set("trace.overhead_s",
            sum(ts.burst_walls) - sum(base.burst_walls))
    res.set("trace.samples", sum(samples.values()))
    coverage(res, "serve-mix", wall, attributed)
    print(f"  worker samples inside run_app by package: "
          f"{dict(sorted(samples.items(), key=lambda kv: -kv[1]))}")
    print("  self time per layer, summed over the daemon, client and workers:")
    _print_layers(layers)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        common.require_program()
        if args.workload == "serve-mix":
            res = run_serve(args.seed, args.seconds, bool(args.trace))
        else:
            res = run_artifact(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.BenchFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        common.cleanup()
    res.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
