"""Command-line interface: quick experiments without writing code.

Examples
--------
Describe the modeled machines::

    python -m repro machines

Run EP (16 threads) under each balancer on 12 Tigerton cores::

    python -m repro run --bench ep.C --cores 12 --balancer speed load pinned

The 3-threads-on-2-cores motivating example::

    python -m repro run --bench ep.C --threads 3 --cores 2 --seconds 2

Print the Section 4 analytical model for a configuration::

    python -m repro model --threads 16 --cores 12
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.apps.barriers import WaitPolicy
from repro.apps.workloads import FULL_CATALOG, WAIT_MODES, AppSpec, make_nas_app
from repro.core import analytical
from repro.harness import report
from repro.harness.experiment import BALANCER_MODES, repeat_run, run_app
from repro.harness.parallel import MACHINE_PRESETS
from repro.sim.backends import backend_names
from repro.topology import presets

#: the named machines (shared with repro.harness.parallel run specs)
MACHINES = MACHINE_PRESETS

WAITS = WAIT_MODES


def _cmd_machines(args: argparse.Namespace) -> int:
    for name, factory in MACHINES.items():
        print(factory().describe())
        print()
    return 0


def _cmd_benches(args: argparse.Namespace) -> int:
    rows = [
        [
            name,
            entry.rss_per_core_gb,
            entry.mem_intensity,
            (entry.inter_barrier_upc_us or 0) / 1000,
            (entry.inter_barrier_omp_us or 0) / 1000,
        ]
        for name, entry in FULL_CATALOG.items()
    ]
    print(report.table(
        ["bench", "RSS GB/core", "mem intensity", "barrier UPC ms",
         "barrier OMP ms"],
        rows,
        title="NAS-like workload catalog (Table 2 of the paper; mg.B and "
              "lu.A are extrapolated extensions)",
    ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    machine = MACHINES[args.machine]
    total_us = int(args.seconds * 1_000_000)
    # an AppSpec rather than a factory closure so --workers can ship the
    # job to worker processes (closures do not pickle)
    spec = AppSpec(
        bench=args.bench, n_threads=args.threads, wait=args.wait,
        total_compute_us=total_us,
    )

    rows = []
    for mode in args.balancer:
        rr = repeat_run(
            machine, spec, balancer=mode, cores=args.cores,
            seeds=range(args.repeats), workers=args.workers,
            engine=args.engine,
        )
        rows.append([
            mode.upper(),
            rr.mean_speedup,
            rr.mean_time_us / 1e6,
            rr.variation_pct,
            rr.mean_migrations,
        ])
    print(report.table(
        ["balancer", "speedup", "time (s)", "variation %", "migrations"],
        rows,
        title=(
            f"{args.bench}, {args.threads} threads on {args.cores} "
            f"{args.machine} cores, {args.wait} barriers, "
            f"{args.repeats} seeds (ideal speedup {args.cores})"
        ),
    ))
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    n, m = args.threads, args.cores
    shape = analytical.queue_shape(n, m)
    pairs = {
        "threads (N)": n,
        "cores (M)": m,
        "threads per fast core (T)": shape.t,
        "fast cores (FQ)": shape.fq,
        "slow cores (SQ)": shape.sq,
        "Lemma 1 step bound": analytical.lemma1_steps_bound(n, m),
        "min profitable S (x balance interval B)": analytical.min_profitable_s(n, m),
        "speed under queue-length balancing": analytical.average_speed_linux(n, m),
        "speed under ideal speed balancing": analytical.average_speed_ideal(n, m),
        "potential speedup": analytical.potential_speedup(n, m),
    }
    print(report.kv_block("Section 4 analytical model", pairs, float_fmt="{:.3f}"))
    return 0


def _invariant_runs(args: argparse.Namespace):
    """Yield one result dict per invariant smoke run.

    The shared matrix behind ``repro check --invariants`` and the
    invariants leg of ``repro check --all``: balancer modes on a UMA
    and a NUMA machine with an
    :class:`~repro.analysis.invariants.InvariantChecker` installed at
    full scan resolution.  Stops at the first violation.
    """
    from repro.analysis.invariants import (
        InvariantConfig,
        InvariantViolation,
        install_invariant_checker,
    )

    total_us = int(args.seconds * 1_000_000)
    wait = WaitPolicy(mode=WAITS[args.wait])
    machines = [("uniform4", lambda: presets.uniform(4)), ("barcelona", presets.barcelona)]
    checkers = []

    def instrument(system) -> None:
        checkers.append(
            install_invariant_checker(system, InvariantConfig(scan_stride=1))
        )

    for mname, machine in machines:
        for mode in ("speed", "load", "dwrr", "ule"):
            for seed in range(args.repeats):
                run = f"{mname}/{mode}/seed{seed}"
                try:
                    run_app(
                        machine,
                        lambda system: make_nas_app(
                            system,
                            args.bench,
                            n_threads=6,
                            wait_policy=wait,
                            total_compute_us=total_us,
                        ),
                        balancer=mode,
                        cores=4,
                        seed=seed,
                        instrument=instrument,
                    )
                except InvariantViolation as exc:
                    yield {"run": run, "ok": False, "error": str(exc)}
                    return
                chk = checkers[-1]
                yield {
                    "run": run,
                    "ok": True,
                    "events": chk.stats["events"],
                    "charges": chk.stats["charges"],
                    "migrations": chk.stats["migrations"],
                }


def _cmd_check(args: argparse.Namespace) -> int:
    """Correctness tooling: static analysis + runtime invariants.

    ``repro check`` runs the per-file lint, the whole-program flow
    analysis and the invariant smoke; ``--lint`` / ``--flow`` /
    ``--kernel`` / ``--invariants`` pick layers and ``--all`` runs every
    layer (adding the kernel readiness analyzer) with one merged JSON
    report.  The static layers run through :mod:`repro.analysis.driver`
    with their shipped allowlists and baselines, sharing one parse and
    one flow fixpoint.  The invariant pass runs a smoke matrix of
    balancer modes on a UMA and a NUMA machine with an
    :class:`~repro.analysis.invariants.InvariantChecker` installed at
    full scan resolution, so every mechanism invariant (INV001..INV004)
    and the speed balancer's policy invariants (INV005/INV006) are
    exercised end to end.
    """
    from repro.analysis import driver

    static = [name for name in driver.NAMES if args.all or getattr(args, name)]
    do_invariants = args.all or args.invariants
    if not static and not do_invariants:
        static, do_invariants = ["lint", "flow"], True
    paths = args.paths or [str(Path(__file__).resolve().parent)]
    missing = driver.missing_paths(paths) if static else []
    if missing:
        print(f"{static[0]}: error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    outcomes = driver.check(static, paths)

    if args.all:
        import json

        report: dict = {o.analyzer.name: o.as_dict() for o in outcomes}
        runs = list(_invariant_runs(args))
        inv_ok = all(r["ok"] for r in runs)
        report["invariants"] = {"status": "ok" if inv_ok else "fail", "runs": runs}
        ok = all(layer["status"] == "ok" for layer in report.values())
        report["status"] = "ok" if ok else "fail"
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if ok else 1

    status = driver.emit(outcomes)
    if do_invariants:
        for result in _invariant_runs(args):
            if not result["ok"]:
                print(f"FAIL {result['run']}: {result['error']}")
                return 1
            print(
                f"ok   {result['run']}: "
                f"{result['events']} events, "
                f"{result['charges']} charges, "
                f"{result['migrations']} migrations checked"
            )
        print("invariants: ok (INV001..INV006 held on the whole smoke matrix)")
    return status


def _cmd_sanitize(args: argparse.Namespace) -> int:
    """Schedule sanitizer: trace-level race/conservation analysis.

    Runs each scenario smoke with full tracing, feeds the recorded
    history through :func:`repro.analysis.sanitizer.sanitize_system`
    and reports findings (SAN001..SAN007).  ``--differential`` adds the
    determinism legs (SAN008): hash-seed subprocess pairs, observers
    on/off and serial-vs-parallel workers.  ``--digest`` is the
    internal child mode those subprocess pairs invoke -- it prints the
    canonical run digest and nothing else.
    """
    import json as _json

    from repro.analysis.sanitizer import run_digest, sanitize_system
    from repro.harness.scenarios import scenario_smokes

    if args.stored is not None:
        return _sanitize_stored(args)

    smokes = scenario_smokes()
    if args.digest is not None:
        smoke = smokes.get(args.digest)
        if smoke is None:
            print(f"repro: error: unknown scenario {args.digest!r}; "
                  f"expected one of {sorted(smokes)}", file=sys.stderr)
            return 2
        result, system = smoke.run(seed=args.seed, engine=args.engine)
        print(run_digest(result, system.trace, system.engine))
        return 0

    names = args.scenario or sorted(smokes)
    unknown = [n for n in names if n not in smokes]
    if unknown:
        print(f"repro: error: unknown scenario(s) {unknown}; "
              f"expected from {sorted(smokes)}", file=sys.stderr)
        return 2

    findings = []
    for name in names:
        result, system = smokes[name].run(seed=args.seed, engine=args.engine)
        found = sanitize_system(system, result=result, context=name)
        findings.extend(found)
        if not args.json:
            trace = system.trace
            print(f"{name}: {len(found)} finding(s), "
                  f"{len(trace.segments)} segments, "
                  f"{len(trace.migrations)} migration events")

    if args.differential:
        from repro.analysis.differential import differential_check

        for name in names:
            diff = differential_check(name, seed=args.seed, engine=args.engine)
            findings.extend(diff)
            if not args.json:
                if any(f.severity == "error" for f in diff):
                    status = "DIVERGED"
                else:  # a warning here is a skipped leg
                    status = "incomplete" if diff else "ok"
                print(f"{name}: differential {status}")

    if args.json:
        print(_json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.format())
        n = len(findings)
        print(f"sanitize: {'ok' if not n else f'{n} finding(s)'} "
              f"({len(names)} scenario(s), seed {args.seed}"
              f"{', differential' if args.differential else ''})")
    return 1 if findings else 0


def _sanitize_stored(args: argparse.Namespace) -> int:
    """``repro sanitize --store DIR --stored [DIGEST...]``.

    Analyzes traces archived by ``repro submit --trace`` instead of
    re-running scenarios; an empty digest list means every traced
    entry in the store.
    """
    import json as _json

    from repro.analysis.sanitizer import sanitize_stored
    from repro.store import ResultStore

    store = ResultStore(args.store)
    if args.stored:
        digests = [_resolve_digest(store, d) for d in args.stored]
    else:
        digests = [e["digest"] for e in store.entries() if e.get("has_trace")]
        if not digests:
            print(f"repro: error: no traced entries in {args.store}; "
                  "archive some with repro submit --trace", file=sys.stderr)
            return 2

    findings = []
    for digest in digests:
        found = sanitize_stored(store, digest)
        findings.extend(found)
        if not args.json:
            print(f"{digest[:12]}: {len(found)} finding(s)")
    if args.json:
        print(_json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.format())
        n = len(findings)
        print(f"sanitize: {'ok' if not n else f'{n} finding(s)'} "
              f"({len(digests)} stored trace(s) in {args.store})")
    return 1 if findings else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Perf trajectory: run the bench suite, write/compare BENCH_*.json.

    Exit codes: 0 ok, 1 wall-time regression, 2 events mismatch (a
    determinism regression -- simulated behaviour drifted from the
    baseline, which no threshold excuses).  The events check always
    runs (and fails) before the wall-time one.  See
    :mod:`repro.harness.bench` and docs/performance.md.
    """
    from repro.harness import bench

    if args.profile is not None:
        print(bench.profile_benches(quick=args.quick, top_n=args.profile,
                                    engine=args.engine),
              end="")
        return 0

    if args.compare is not None and len(args.compare) > 2:
        print("repro bench: --compare takes one payload (against "
              "--baseline) or exactly two", file=sys.stderr)
        return 2

    if args.compare is not None and len(args.compare) == 2:
        return _bench_compare_pair(args, bench)

    if args.compare is not None:
        if args.baseline is None:
            print("repro bench: --compare with one payload requires "
                  "--baseline (or give two payloads: --compare A B)",
                  file=sys.stderr)
            return 2
        payload = bench.load_payload(args.compare[0])
    else:
        results = bench.run_benches(
            quick=args.quick,
            rounds=args.rounds,
            engine=args.engine,
            progress=lambda r: print(
                f"  {r.name}: {r.wall_s:.3f}s, {r.events} events "
                f"({r.events_per_sec / 1e3:.0f}k ev/s, "
                f"{r.ns_per_event:.0f} ns/event, best of {r.rounds})"
            ),
        )
        payload = bench.to_payload(results, label=args.label, quick=args.quick,
                                   engine=args.engine)
        path = bench.write_payload(payload, out_dir=args.out)
        print(f"wrote {path}")

    baseline_path = Path(args.baseline) if args.baseline else None
    if baseline_path is None:
        return 0
    if not baseline_path.exists():
        print(f"baseline {baseline_path} not found; skipping comparison "
              "(commit this run's output to establish one)")
        return 0
    comparisons = bench.compare_payloads(
        bench.load_payload(baseline_path), payload,
        threshold_pct=args.threshold,
    )

    # determinism tripwire first: an event-count drift means simulated
    # behaviour changed, which a wall-time threshold must never mask
    if not args.wall_only:
        mismatched = [c for c in comparisons if c.events_mismatch]
        if mismatched:
            for c in mismatched:
                print(f"repro bench: events mismatch in {c.name}: baseline "
                      f"{c.baseline_events}, now {c.events} (determinism "
                      "regression)", file=sys.stderr)
            return 2
        print(f"events: {len(comparisons)} bench(es) match "
              f"{baseline_path} exactly")
    if args.events_only:
        return 0

    rows = [
        [c.name, c.baseline_wall_s, c.wall_s, c.delta_pct,
         "REGRESSED" if c.regressed else "ok"]
        for c in comparisons
    ]
    print(report.table(
        ["bench", "baseline s", "now s", "delta %", "status"], rows,
        title=f"vs {baseline_path} (threshold {args.threshold:g}%)",
    ))
    regressed = [c for c in comparisons if c.regressed]
    if regressed:
        names = ", ".join(c.name for c in regressed)
        print(f"repro bench: {len(regressed)} regression(s): {names}",
              file=sys.stderr)
        return 1
    return 0


def _bench_compare_pair(args: argparse.Namespace, bench) -> int:
    """``repro bench --compare A.json B.json``: the head-to-head form.

    Treats the first payload as the reference and the second as the
    candidate, prints a per-bench speedup table (reference wall over
    candidate wall, so >1.0 means the candidate is faster) and exits
    non-zero when the candidate is more than ``--threshold`` percent
    slower on any bench.  The deterministic event-count check still runs
    first (exit 2 on drift) unless ``--wall-only``; cross-engine pairs
    are the intended use -- matching counts are the cross-engine
    parity tripwire.
    """
    if args.baseline is not None:
        print("repro bench: --baseline does not combine with the "
              "two-payload --compare form", file=sys.stderr)
        return 2
    ref_path, cand_path = args.compare
    ref = bench.load_payload(ref_path)
    cand = bench.load_payload(cand_path)
    comparisons = bench.compare_payloads(ref, cand,
                                         threshold_pct=args.threshold)
    if not comparisons:
        print("repro bench: the two payloads share no bench cases",
              file=sys.stderr)
        return 2

    if not args.wall_only:
        mismatched = [c for c in comparisons if c.events_mismatch]
        if mismatched:
            for c in mismatched:
                print(f"repro bench: events mismatch in {c.name}: "
                      f"{ref_path} has {c.baseline_events}, {cand_path} "
                      f"has {c.events} (determinism regression)",
                      file=sys.stderr)
            return 2
        print(f"events: {len(comparisons)} bench(es) match between "
              f"{ref_path} and {cand_path}")
    if args.events_only:
        return 0

    rows = [
        [c.name, c.baseline_wall_s, c.wall_s,
         c.baseline_wall_s / c.wall_s if c.wall_s > 0 else 0.0,
         "REGRESSED" if c.regressed else "ok"]
        for c in comparisons
    ]
    print(report.table(
        ["bench", f"{ref.get('engine', '?')} s", f"{cand.get('engine', '?')} s",
         "speedup", "status"],
        rows,
        title=(f"{ref_path} ({ref['label']}) vs {cand_path} "
               f"({cand['label']}); speedup >1.0 = second payload faster, "
               f"threshold {args.threshold:g}%"),
        float_fmt="{:.4g}",
    ))
    regressed = [c for c in comparisons if c.regressed]
    if regressed:
        names = ", ".join(c.name for c in regressed)
        print(f"repro bench: {len(regressed)} regression(s) beyond "
              f"{args.threshold:g}%: {names}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# content-addressed store + job service (repro.store / repro.service)
# ----------------------------------------------------------------------
def _resolve_digest(store, prefix: str) -> str:
    """A full digest from a (possibly abbreviated) hex prefix."""
    if not prefix or any(c not in "0123456789abcdef" for c in prefix):
        raise ValueError(f"invalid digest prefix {prefix!r} (lowercase hex)")
    matches = [d for d in store.digests() if d.startswith(prefix)]
    if not matches:
        raise ValueError(f"no store entry matches digest prefix {prefix!r}")
    if len(matches) > 1:
        raise ValueError(
            f"digest prefix {prefix!r} is ambiguous "
            f"({len(matches)} matches); give more characters"
        )
    return matches[0]


def _submit_specs(args: argparse.Namespace) -> list:
    """The RunSpec batch behind one ``repro submit`` invocation."""
    from repro.harness.parallel import RunSpec

    total_us = int(args.seconds * 1_000_000)
    app = AppSpec(
        bench=args.bench, n_threads=args.threads, wait=args.wait,
        total_compute_us=total_us,
    )
    return [
        RunSpec.make(
            args.machine, app, balancer=mode, cores=args.cores, seed=seed,
            engine=args.engine,
        )
        for mode in args.balancer
        for seed in range(args.repeats)
    ]


def _cmd_submit(args: argparse.Namespace) -> int:
    """Run a batch through the job service: only cache misses simulate.

    The second identical invocation serves everything from the store
    (``--expect-cached`` turns that into an assertion, exit 1 if any
    simulation ran -- the CI store-smoke leg).
    """
    import json as _json

    from repro.metrics import export
    from repro.service import JobFailedError, JobService
    from repro.store import ResultStore, spec_digest

    specs = _submit_specs(args)
    store = ResultStore(args.store)

    def on_status(st) -> None:
        line = f"  {st.digest[:12]} {st.state}"
        if st.attempts > 1:
            line += f" (attempt {st.attempts})"
        if st.error:
            line += f": {st.error}"
        print(line)

    service = JobService(store, on_status=None if args.json else on_status)
    try:
        results = service.submit(
            specs, workers=args.workers, trace=args.trace,
            timeout_s=args.job_timeout,
        )
    except JobFailedError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 1

    digests = [spec_digest(s) for s in specs]
    cached = sum(
        1 for st in service.statuses().values() if st.state == "cached"
    )
    if args.json:
        print(_json.dumps(
            [
                {"digest": d, "result": export.result_to_dict(r)}
                for d, r in zip(digests, results)
            ],
            indent=2, sort_keys=True,
        ))
    else:
        rows = [
            [d[:12], s.balancer, s.seed, r.speedup, r.elapsed_us / 1e6]
            for d, s, r in zip(digests, specs, results)
        ]
        print(report.table(
            ["digest", "balancer", "seed", "speedup", "time (s)"], rows,
            title=(
                f"{args.bench}, {args.threads} threads on {args.cores} "
                f"{args.machine} cores -> {args.store}"
            ),
        ))
        print(
            f"{len(specs)} job(s): {len(set(digests))} unique, "
            f"{cached} cached, {service.executed} executed"
            f"{', traces archived' if args.trace else ''}"
        )
    if args.expect_cached and service.executed:
        print(
            f"repro submit: expected a fully cached batch but "
            f"{service.executed} job(s) had to run",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """List store entries (all of them, or the given digest prefixes).

    ``--watch`` turns the listing into a poll: re-read the store every
    ``--interval`` seconds until every requested digest prefix has an
    entry (exit 0) or ``--timeout`` elapses first (exit 1).  Watching
    without digests waits for the store to become non-empty.
    """
    import time as _time

    from repro.serve import clock as _clock
    from repro.store import ResultStore

    store = ResultStore(args.store)
    if args.watch:
        deadline = (
            _clock.monotonic() + args.timeout
            if args.timeout is not None
            else None
        )
        while True:
            digests = store.digests()
            missing = (
                [p for p in args.digest if not any(d.startswith(p) for d in digests)]
                if args.digest
                else ([] if digests else ["<any entry>"])
            )
            if not missing:
                break
            if deadline is not None and _clock.monotonic() > deadline:
                print(
                    f"repro status: still waiting on {len(missing)} "
                    f"digest(s) after {args.timeout:g}s: "
                    + ", ".join(m[:12] for m in missing),
                    file=sys.stderr,
                )
                return 1
            _time.sleep(args.interval)

    entries = store.entries()
    if args.digest:
        wanted = {_resolve_digest(store, d) for d in args.digest}
        entries = [e for e in entries if e["digest"] in wanted]
    rows = [
        [
            e["digest"][:12],
            e["seq"],
            e["kind"],
            e.get("app") or "-",
            e.get("balancer") or "-",
            "-" if e.get("seed") is None else e["seed"],
            "yes" if e.get("has_trace") else "no",
        ]
        for e in entries
    ]
    print(report.table(
        ["digest", "seq", "kind", "app", "balancer", "seed", "trace"],
        rows,
        title=f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'} "
              f"in {args.store}",
    ))
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    """Print the stored result behind one digest."""
    import json as _json

    from repro.metrics import export
    from repro.store import ResultStore

    store = ResultStore(args.store)
    digest = _resolve_digest(store, args.digest)
    entry = store.get(digest)
    assert entry is not None  # _resolve_digest only returns real entries
    if entry.kind != "run":
        print(_json.dumps(entry.value, indent=2, sort_keys=True))
        return 0
    payload = export.result_to_dict(entry.result)
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    pairs = dict(payload)
    pairs.pop("type", None)
    print(report.kv_block(f"{digest[:12]} ({digest})", pairs))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Store maintenance: ``repro store gc | verify | stats``."""
    from repro.store import ResultStore

    store = ResultStore(args.store)
    if args.store_command == "stats":
        s = store.stats()
        print(report.kv_block(f"store {s.root}", {
            "entries": s.entries,
            "traced": s.traced,
            "total bytes": s.total_bytes,
            "next seq": s.next_seq,
        }))
        return 0
    if args.store_command == "verify":
        findings = store.verify()
        for f in findings:
            print(f)
        print(f"verify: {'clean' if not findings else f'{len(findings)} finding(s)'} "
              f"({store.root})")
        return 1 if findings else 0
    # gc
    rep = store.gc(max_entries=args.max_entries, max_bytes=args.max_bytes)
    for f in rep.findings:
        print(f)
    print(
        f"gc: kept {rep.kept}, removed {rep.removed_corrupt} corrupt, "
        f"evicted {rep.removed_evicted}, adopted {rep.adopted}, "
        f"freed {rep.bytes_freed} bytes"
    )
    return 0


# ----------------------------------------------------------------------
# serving daemon + client (repro.serve)
# ----------------------------------------------------------------------
def _parse_tenant(text: str):
    """``name[:weight[:rate[:burst[:queue_limit]]]]`` -> TenantConfig."""
    from repro.serve import TenantConfig

    parts = text.split(":")
    if not parts[0]:
        raise ValueError(f"tenant spec {text!r} has an empty name")
    if len(parts) > 5:
        raise ValueError(
            f"tenant spec {text!r} has too many fields; expected "
            "name[:weight[:rate[:burst[:queue_limit]]]]"
        )
    try:
        return TenantConfig(
            name=parts[0],
            weight=float(parts[1]) if len(parts) > 1 else 1.0,
            rate=float(parts[2]) if len(parts) > 2 else 50.0,
            burst=float(parts[3]) if len(parts) > 3 else 100.0,
            queue_limit=int(parts[4]) if len(parts) > 4 else 512,
        )
    except ValueError as exc:
        raise ValueError(f"tenant spec {text!r}: {exc}") from None


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the serving daemon until SIGTERM/SIGINT drains it."""
    import asyncio

    from repro.serve import ServeConfig
    from repro.serve.server import run_server

    config = ServeConfig(
        store_root=args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=args.backend,
        tenants=tuple(_parse_tenant(t) for t in args.tenant),
        window_s=args.window,
        job_timeout_s=args.job_timeout,
        max_attempts=args.max_attempts,
    )
    asyncio.run(run_server(config))
    return 0


def _client_resolve(client, prefix: str) -> str:
    """A full job digest from a prefix, via the daemon's job listing."""
    if not prefix or any(c not in "0123456789abcdef" for c in prefix):
        raise ValueError(f"invalid digest prefix {prefix!r} (lowercase hex)")
    if len(prefix) == 64:
        return prefix
    matches = [
        j["digest"] for j in client.jobs() if j["digest"].startswith(prefix)
    ]
    if not matches:
        raise ValueError(f"no job matches digest prefix {prefix!r}")
    if len(matches) > 1:
        raise ValueError(
            f"digest prefix {prefix!r} is ambiguous ({len(matches)} jobs)"
        )
    return matches[0]


def _cmd_client(args: argparse.Namespace) -> int:
    """Talk to a running daemon: submit / status / fetch / metrics / watch."""
    import json as _json

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        if args.client_command == "submit":
            specs = _submit_specs(args)
            resp = client.submit(specs, tenant=args.tenant)
            jobs = resp["jobs"]
            if args.watch:
                jobs = [
                    client.wait(j["digest"], timeout_s=args.timeout)
                    for j in jobs
                ]
            if args.json:
                print(_json.dumps(jobs, indent=2, sort_keys=True))
            else:
                rows = [
                    [j["digest"][:12], j["state"], j["attempts"],
                     j.get("error") or "-"]
                    for j in jobs
                ]
                print(report.table(
                    ["digest", "state", "attempts", "error"], rows,
                    title=f"{len(jobs)} job(s) as tenant "
                          f"{resp['tenant']!r} via {args.url}",
                ))
            failed = [j for j in jobs if j["state"] == "failed"]
            return 1 if args.watch and failed else 0

        if args.client_command == "status":
            digest = _client_resolve(client, args.digest)
            view = (
                client.wait(digest, poll_s=args.interval, timeout_s=args.timeout)
                if args.watch
                else client.status(digest)
            )
            print(_json.dumps(view, indent=2, sort_keys=True))
            if args.watch:
                return 0 if view["state"] in ("done", "cached") else 1
            return 0

        if args.client_command == "fetch":
            digest = _client_resolve(client, args.digest)
            print(_json.dumps(client.result(digest), indent=2, sort_keys=True))
            return 0

        if args.client_command == "metrics":
            print(_json.dumps(client.metrics(), indent=2, sort_keys=True))
            return 0

        # watch: stream the SSE feed of one job
        digest = _client_resolve(client, args.digest)
        final = ""
        for event, data in client.events(digest):
            print(_json.dumps({"event": event, **data}, sort_keys=True))
            if event == "end":
                final = data.get("state", "")
        return 0 if final in ("done", "cached") else 1
    except ServeError as exc:
        print(f"repro client: {exc}", file=sys.stderr)
        retry = exc.retry_after_s
        if retry is not None:
            print(f"repro client: retry after {retry:.3f}s", file=sys.stderr)
        return 1
    except TimeoutError as exc:
        print(f"repro client: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"repro client: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1


def _add_engine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", default="heap", choices=backend_names(),
        help="event-dispatch backend (default: heap; backends are "
             "digest-equivalent, see repro.sim.backends)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Load Balancing on Speed' (PPoPP 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="describe the modeled machines")
    sub.add_parser("benches", help="list the NAS-like workload catalog")

    run = sub.add_parser("run", help="run a workload under one or more balancers")
    run.add_argument("--bench", default="ep.C", choices=sorted(FULL_CATALOG))
    run.add_argument("--machine", default="tigerton", choices=sorted(MACHINES))
    run.add_argument("--threads", type=int, default=16)
    run.add_argument("--cores", type=int, default=12)
    run.add_argument("--wait", default="yield", choices=sorted(WAITS))
    run.add_argument("--seconds", type=float, default=1.0,
                     help="per-thread compute demand in simulated seconds")
    run.add_argument("--repeats", type=int, default=3)
    run.add_argument(
        "--balancer", nargs="+", default=["speed", "load"],
        choices=BALANCER_MODES,
    )
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the seed repeats (results are "
             "bit-identical to --workers 1; see docs/performance.md)",
    )
    _add_engine_arg(run)

    model = sub.add_parser("model", help="print the Section 4 analytical model")
    model.add_argument("--threads", type=int, required=True)
    model.add_argument("--cores", type=int, required=True)

    check = sub.add_parser(
        "check",
        help="correctness tooling: determinism lint + whole-program flow "
             "analysis + runtime invariant smoke",
    )
    check.add_argument(
        "--invariants", action="store_true",
        help="run only the runtime invariant smoke matrix",
    )
    check.add_argument(
        "--lint", action="store_true",
        help="run only the static determinism lint",
    )
    check.add_argument(
        "--flow", action="store_true",
        help="run only the whole-program flow analyzer",
    )
    check.add_argument(
        "--kernel", action="store_true",
        help="run only the compiled-kernel readiness analyzer",
    )
    check.add_argument(
        "--all", action="store_true",
        help="run every layer (lint, flow, kernel, invariants) and "
             "print one merged JSON report",
    )
    check.add_argument(
        "--paths", nargs="+", default=None,
        help="analyze these paths (default: the installed repro package)",
    )
    check.add_argument("--bench", default="ep.C", choices=sorted(FULL_CATALOG))
    check.add_argument("--wait", default="yield", choices=sorted(WAITS))
    check.add_argument(
        "--seconds", type=float, default=0.3,
        help="per-thread compute demand of each smoke run (simulated seconds)",
    )
    check.add_argument("--repeats", type=int, default=2)

    sanitize = sub.add_parser(
        "sanitize",
        help="schedule sanitizer: trace-level race/conservation analysis "
             "over the scenario suite (+ differential determinism)",
    )
    sanitize.add_argument(
        "--scenario", nargs="+", default=None, metavar="NAME",
        help="scenario smoke(s) to analyze (default: all; see "
             "repro.harness.scenarios.scenario_smokes)",
    )
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument(
        "--json", action="store_true",
        help="emit findings as a JSON array instead of text",
    )
    sanitize.add_argument(
        "--differential", action="store_true",
        help="also run the differential determinism legs (hash-seed "
             "subprocess pair, observers on/off, serial vs parallel)",
    )
    sanitize.add_argument(
        "--digest", default=None, metavar="NAME",
        help="internal: print the canonical run digest of one scenario "
             "and exit (used by the hash-seed subprocess leg)",
    )
    sanitize.add_argument(
        "--stored", nargs="*", default=None, metavar="DIGEST",
        help="analyze traces archived in the content-addressed store "
             "instead of re-running scenarios (no digests = every traced "
             "entry; see repro submit --trace)",
    )
    sanitize.add_argument(
        "--store", default=".repro-store",
        help="store directory for --stored (default: .repro-store)",
    )
    _add_engine_arg(sanitize)

    bench = sub.add_parser(
        "bench",
        help="perf trajectory: run the simulator bench suite, write "
             "BENCH_<label>.json, compare against a baseline",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="reduced workloads (the CI perf-smoke flavour; only "
             "comparable against a --quick baseline)",
    )
    bench.add_argument("--label", default="baseline",
                       help="writes BENCH_<label>.json (default: baseline)")
    bench.add_argument("--out", default=".",
                       help="directory for the output file (default: .)")
    bench.add_argument(
        "--baseline", default=None,
        help="previous BENCH_*.json to compare against (exit 1 on "
             "regression beyond the threshold)",
    )
    bench.add_argument(
        "--threshold", type=float, default=25.0,
        help="wall-time regression threshold in percent (default: 25)",
    )
    bench.add_argument(
        "--rounds", type=int, default=None,
        help="timing rounds per bench, best-of (default: 3)",
    )
    bench.add_argument(
        "--profile", type=int, nargs="?", const=15, default=None, metavar="N",
        help="instead of timing, run each case once under cProfile and "
             "print the top N functions by cumulative time (default N: 15); "
             "writes no payload",
    )
    bench.add_argument(
        "--compare", default=None, nargs="+", metavar="BENCH_JSON",
        help="skip running: with one payload, compare it against "
             "--baseline (lets CI split the events and wall-time checks "
             "without re-running the suite); with two payloads, print a "
             "head-to-head per-bench speedup table (second over first) "
             "and exit 1 on regressions beyond --threshold",
    )
    only = bench.add_mutually_exclusive_group()
    only.add_argument(
        "--events-only", action="store_true",
        help="only run the deterministic events check against the "
             "baseline; skip the wall-time threshold",
    )
    only.add_argument(
        "--wall-only", action="store_true",
        help="only run the wall-time threshold check against the "
             "baseline; skip the events check",
    )
    _add_engine_arg(bench)

    submit = sub.add_parser(
        "submit",
        help="run a batch through the content-addressed store: cache "
             "misses simulate once, everything else is served from disk",
    )
    submit.add_argument("--store", default=".repro-store",
                        help="store directory (default: .repro-store)")
    submit.add_argument("--bench", default="ep.C", choices=sorted(FULL_CATALOG))
    submit.add_argument("--machine", default="tigerton", choices=sorted(MACHINES))
    submit.add_argument("--threads", type=int, default=16)
    submit.add_argument("--cores", type=int, default=12)
    submit.add_argument("--wait", default="yield", choices=sorted(WAITS))
    submit.add_argument("--seconds", type=float, default=1.0,
                        help="per-thread compute demand in simulated seconds")
    submit.add_argument("--repeats", type=int, default=3)
    submit.add_argument(
        "--balancer", nargs="+", default=["speed", "load"],
        choices=BALANCER_MODES,
    )
    submit.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the cache misses",
    )
    submit.add_argument(
        "--trace", action="store_true",
        help="also archive each fresh run's full trace (feeds "
             "repro sanitize --stored)",
    )
    submit.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds; a job past it fails "
             "with a timeout reason and re-enters the retry loop (not "
             "combinable with --trace)",
    )
    submit.add_argument(
        "--expect-cached", action="store_true",
        help="assert the whole batch is already cached; exit 1 if any "
             "simulation had to run (the CI store-smoke invariant)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="emit [{digest, result}] as JSON instead of a table",
    )
    _add_engine_arg(submit)

    status = sub.add_parser(
        "status", help="list the entries of a content-addressed store",
    )
    status.add_argument("digest", nargs="*", default=[],
                        help="only these digests (prefixes allowed)")
    status.add_argument("--store", default=".repro-store",
                        help="store directory (default: .repro-store)")
    status.add_argument(
        "--watch", action="store_true",
        help="poll the store until every given digest (or, with none, "
             "any entry) exists; exit 1 if --timeout elapses first",
    )
    status.add_argument("--interval", type=float, default=0.5,
                        help="--watch poll interval in seconds (default: 0.5)")
    status.add_argument(
        "--timeout", type=float, default=None,
        help="--watch gives up (exit 1) after this many seconds "
             "(default: wait forever)",
    )

    fetch = sub.add_parser(
        "fetch", help="print the stored result behind one digest",
    )
    fetch.add_argument("digest", help="entry digest (prefix allowed)")
    fetch.add_argument("--store", default=".repro-store",
                       help="store directory (default: .repro-store)")
    fetch.add_argument("--json", action="store_true",
                       help="emit the result dict as JSON")

    serve = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service daemon (HTTP/JSON + SSE "
             "over a sharded content-addressed store)",
    )
    serve.add_argument("--store", default=".repro-serve",
                       help="sharded store root (default: .repro-serve)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8421,
                       help="listen port; 0 picks a free one (default: 8421)")
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes; also the store shard count (default: 2)",
    )
    serve.add_argument(
        "--backend", default="process", choices=("process", "thread"),
        help="worker pool backend (default: process; thread is for tests "
             "and has no job-timeout kill support)",
    )
    serve.add_argument(
        "--tenant", action="append", default=[], metavar="SPEC",
        help="declare a tenant as name[:weight[:rate[:burst[:queue_limit]]]] "
             "(repeatable); undeclared tenants get the defaults",
    )
    serve.add_argument(
        "--window", type=float, default=30.0,
        help="service-speed measurement window in seconds (default: 30)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds; a worker past it is "
             "killed and respawned (default: none)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=2,
        help="dispatch attempts per job before it is failed (default: 2)",
    )

    client_p = sub.add_parser(
        "client",
        help="talk to a running repro serve daemon: submit, status, "
             "fetch, metrics, watch",
    )
    client_p.add_argument("--url", default="http://127.0.0.1:8421",
                          help="daemon base URL (default: http://127.0.0.1:8421)")
    client_sub = client_p.add_subparsers(dest="client_command", required=True)

    c_submit = client_sub.add_parser(
        "submit", help="submit a spec batch over HTTP (dedup + cache apply)",
    )
    c_submit.add_argument("--tenant", default="default")
    c_submit.add_argument("--bench", default="ep.C", choices=sorted(FULL_CATALOG))
    c_submit.add_argument("--machine", default="tigerton", choices=sorted(MACHINES))
    c_submit.add_argument("--threads", type=int, default=16)
    c_submit.add_argument("--cores", type=int, default=12)
    c_submit.add_argument("--wait", default="yield", choices=sorted(WAITS))
    c_submit.add_argument("--seconds", type=float, default=1.0,
                          help="per-thread compute demand in simulated seconds")
    c_submit.add_argument("--repeats", type=int, default=3)
    c_submit.add_argument(
        "--balancer", nargs="+", default=["speed", "load"],
        choices=BALANCER_MODES,
    )
    c_submit.add_argument(
        "--watch", action="store_true",
        help="block until every submitted job is terminal (exit 1 if any "
             "failed)",
    )
    c_submit.add_argument("--timeout", type=float, default=None,
                          help="--watch deadline in seconds")
    c_submit.add_argument("--json", action="store_true",
                          help="emit the job views as JSON")
    _add_engine_arg(c_submit)

    c_status = client_sub.add_parser(
        "status", help="one job's status view (digest prefix allowed)",
    )
    c_status.add_argument("digest")
    c_status.add_argument(
        "--watch", action="store_true",
        help="poll until the job is terminal; exit 0 on done/cached, "
             "1 on failed",
    )
    c_status.add_argument("--interval", type=float, default=0.2,
                          help="--watch poll interval in seconds (default: 0.2)")
    c_status.add_argument("--timeout", type=float, default=None,
                          help="--watch deadline in seconds")

    c_fetch = client_sub.add_parser(
        "fetch", help="fetch the stored result behind one job digest",
    )
    c_fetch.add_argument("digest")

    client_sub.add_parser("metrics", help="print the /v1/metrics snapshot")

    c_watch = client_sub.add_parser(
        "watch", help="stream one job's SSE status events until it ends",
    )
    c_watch.add_argument("digest")

    store_p = sub.add_parser(
        "store", help="store maintenance: gc, verify, stats",
    )
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    store_gc = store_sub.add_parser(
        "gc",
        help="drop corrupt objects, rebuild the index, evict oldest-first "
             "down to the caps",
    )
    store_gc.add_argument("--max-entries", type=int, default=None,
                          help="keep at most this many entries")
    store_gc.add_argument("--max-bytes", type=int, default=None,
                          help="keep at most this many object bytes")
    store_verify = store_sub.add_parser(
        "verify",
        help="full read-only integrity pass over every object (exit 1 on "
             "findings)",
    )
    store_stats = store_sub.add_parser("stats", help="entry/trace/byte counts")
    for p in (store_gc, store_verify, store_stats):
        p.add_argument("--store", default=".repro-store",
                       help="store directory (default: .repro-store)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "machines": _cmd_machines,
        "benches": _cmd_benches,
        "run": _cmd_run,
        "model": _cmd_model,
        "check": _cmd_check,
        "sanitize": _cmd_sanitize,
        "bench": _cmd_bench,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "fetch": _cmd_fetch,
        "store": _cmd_store,
        "serve": _cmd_serve,
        "client": _cmd_client,
    }[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
