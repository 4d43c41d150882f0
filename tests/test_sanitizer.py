"""Schedule sanitizer: fault injection + clean-run silence.

Every SAN rule is demonstrated both ways: a hand-crafted corrupt trace
triggers exactly its code, and a clean run of every shipped scenario
smoke produces zero findings.  The differential determinism legs are
exercised for real (two fresh ``PYTHONHASHSEED`` subprocesses must
digest identically) and in isolation (the comparison helper fires
SAN008 on injected divergent digests).
"""

from __future__ import annotations

import pytest

from repro.analysis.differential import (
    compare_digests,
    differential_check,
    scenario_digest,
    subprocess_digest,
)
from repro.analysis.sanitizer import (
    MAX_FINDINGS_PER_RULE,
    SAN_RULES,
    PullPolicy,
    analyze_trace,
    check_conservation,
    check_overlaps,
    check_pull_policy,
    check_truncation,
    run_digest,
    sanitize_system,
    trace_digest,
)
from repro.harness.scenarios import scenario_smokes
from repro.sim.backends import backend_available
from repro.metrics.trace import TraceRecorder
from repro.topology import presets
from repro.topology.machine import DomainLevel

SMOKES = scenario_smokes()


def codes(findings):
    return sorted({f.code for f in findings})


def pull_policy(
    cores=(0, 1),
    tids=(1,),
    interval_us=100_000,
    block_intervals=2.0,
    numa_enabled=True,
    numa_mult=1.0,
):
    return PullPolicy(
        cores=frozenset(cores),
        tids=frozenset(tids),
        interval_us=interval_us,
        block_intervals=block_intervals,
        level_enabled={lvl: True for lvl in DomainLevel} | {DomainLevel.NUMA: numa_enabled},
        level_block_multiplier={lvl: 1.0 for lvl in DomainLevel}
        | {DomainLevel.NUMA: numa_mult},
    )


# ----------------------------------------------------------------------
# fault injection: each rule fires on its crafted corruption, alone
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_san001_migration_race(self):
        trace = TraceRecorder()
        trace.record(1, "t", 0, 0, 100, "compute")
        trace.record(1, "t", 1, 50, 150, "compute")
        found = check_overlaps(trace)
        assert codes(found) == ["SAN001"]
        assert "cores 0 and 1" in found[0].message
        assert len(found[0].citations) == 2

    def test_san002_double_charge(self):
        trace = TraceRecorder()
        trace.record(1, "a", 0, 0, 100, "compute")
        trace.record(2, "b", 0, 50, 150, "compute")
        found = check_overlaps(trace)
        assert codes(found) == ["SAN002"]
        assert "core 0 charged twice" in found[0].message

    def test_adjacent_segments_are_clean(self):
        # back-to-back [0,100) [100,200) on one core and a migration
        # landing exactly at a segment boundary must not alarm
        trace = TraceRecorder()
        trace.record(1, "a", 0, 0, 100, "compute")
        trace.record(2, "b", 0, 100, 200, "compute")
        trace.record(1, "a", 1, 100, 200, "compute")
        assert check_overlaps(trace) == []

    def test_san003_task_drift(self):
        trace = TraceRecorder()
        trace.record(1, "t", 0, 0, 100, "compute")
        found = check_conservation(trace, task_exec_us={1: 150})
        assert codes(found) == ["SAN003"]
        assert "drift -50us" in found[0].message

    def test_san003_unknown_task(self):
        trace = TraceRecorder()
        trace.record(7, "ghost", 0, 0, 100, "compute")
        found = check_conservation(trace, task_exec_us={})
        assert codes(found) == ["SAN003"]
        assert "accounting does not know" in found[0].message

    def test_san004_core_drift(self):
        trace = TraceRecorder()
        trace.record(1, "t", 0, 0, 100, "compute")
        found = check_conservation(trace, core_busy_us={0: 90})
        assert codes(found) == ["SAN004"]
        assert "drift +10us" in found[0].message

    def test_san005_pull_inside_block_window(self):
        trace = TraceRecorder()
        trace.record_migration(0, 1, "t", 0, 1, False, "speed.pull")
        # window is 2.0 * 100_000 = 200_000us; this pull is 100_000 in
        trace.record_migration(100_000, 1, "t", 1, 0, False, "speed.pull")
        found = check_pull_policy(trace, [pull_policy()])
        assert codes(found) == ["SAN005"]
        assert "t=100000" in found[0].message

    def test_san005_silent_outside_window(self):
        trace = TraceRecorder()
        trace.record_migration(0, 1, "t", 0, 1, False, "speed.pull")
        trace.record_migration(200_000, 1, "t", 1, 0, False, "speed.pull")
        assert check_pull_policy(trace, [pull_policy()]) == []

    def test_san005_non_pull_reasons_do_not_open_windows(self):
        trace = TraceRecorder()
        trace.record_migration(0, 1, "t", None, 1, False, "speed.initial")
        trace.record_migration(10, 1, "t", 0, 1, True, "linux.cache")
        trace.record_migration(20, 1, "t", 1, 0, False, "speed.pull")
        assert check_pull_policy(trace, [pull_policy()]) == []

    def test_san006_pull_across_numa_fence(self):
        machine = presets.barcelona()  # sockets {0..3}, {4..7}, ... NUMA
        trace = TraceRecorder()
        trace.record_migration(0, 1, "t", 0, 4, False, "speed.pull")
        policy = pull_policy(cores=(0, 4), numa_enabled=False)
        found = check_pull_policy(trace, [policy], machine=machine)
        assert codes(found) == ["SAN006"]
        assert "NUMA" in found[0].message

    def test_san006_silent_when_numa_enabled(self):
        machine = presets.barcelona()
        trace = TraceRecorder()
        trace.record_migration(0, 1, "t", 0, 4, False, "speed.pull")
        policy = pull_policy(cores=(0, 4), numa_enabled=True)
        assert check_pull_policy(trace, [policy], machine=machine) == []

    def test_numa_block_multiplier_scales_window(self):
        # same-socket window is 200_000; the NUMA multiplier stretches
        # the cross-node source's window to 400_000
        machine = presets.barcelona()
        policy = pull_policy(cores=(0, 1, 4), numa_enabled=True, numa_mult=2.0)
        trace = TraceRecorder()
        trace.record_migration(0, 1, "t", 4, 0, False, "speed.pull")
        # 300_000 > plain window but < scaled window for src=4 (NUMA
        # relative to dst=0), so pulling from 4 again is a violation
        trace.record_migration(300_000, 1, "t", 4, 0, False, "speed.pull")
        found = check_pull_policy(trace, [policy], machine=machine)
        assert codes(found) == ["SAN005"]

    def test_san007_truncated(self):
        trace = TraceRecorder(limit=1)
        trace.record(1, "a", 0, 0, 100, "compute")
        trace.record(2, "b", 1, 0, 100, "compute")
        found = check_truncation(trace)
        assert codes(found) == ["SAN007"]
        assert "1 segments" in found[0].message

    def test_san007_suppresses_conservation(self):
        # an incomplete trace must not produce phantom drift findings
        trace = TraceRecorder(limit=1)
        trace.record(1, "a", 0, 0, 100, "compute")
        trace.record(1, "a", 0, 100, 200, "compute")
        found = analyze_trace(trace, task_exec_us={1: 200}, core_busy_us={0: 200})
        assert codes(found) == ["SAN007"]

    def test_san008_divergent_digests(self):
        found = compare_digests("hashseed", "aaa", "bbb", context="x")
        assert codes(found) == ["SAN008"]
        assert found[0].citations == ("digest A: aaa", "digest B: bbb")
        assert compare_digests("hashseed", "same", "same") == []

    def test_per_rule_cap(self):
        trace = TraceRecorder()
        for i in range(2 * MAX_FINDINGS_PER_RULE):
            trace.record(i, "t", 0, 0, 100, "compute")
        found = check_overlaps(trace)
        assert len(found) == MAX_FINDINGS_PER_RULE
        assert "suppressed" in found[-1].message

    def test_every_rule_has_catalogue_entry(self):
        assert sorted(SAN_RULES) == [f"SAN00{i}" for i in range(1, 9)]


# ----------------------------------------------------------------------
# clean runs: every shipped scenario sanitizes silently
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SMOKES))
def test_clean_scenarios_have_zero_findings(name):
    result, system = SMOKES[name].run(seed=0)
    findings = sanitize_system(system, result=result, context=name)
    assert findings == []
    # the run actually recorded history worth auditing
    assert system.trace.segments
    assert system.trace.migrations


def test_sanitize_requires_trace():
    result, system = SMOKES["balance-interval"].run(seed=0)
    system.trace = None
    with pytest.raises(ValueError, match="trace"):
        sanitize_system(system)


def test_tampered_result_is_caught():
    result, system = SMOKES["balance-interval"].run(seed=0)
    result.thread_exec_us[0] += 1
    findings = sanitize_system(system, result=result)
    assert codes(findings) == ["SAN003"]


def test_tampered_core_accounting_is_caught():
    result, system = SMOKES["balance-interval"].run(seed=0)
    system.cores[0].stats.busy_us += 7
    findings = sanitize_system(system, result=result)
    assert "SAN004" in codes(findings)


# ----------------------------------------------------------------------
# canonical digests
# ----------------------------------------------------------------------
def test_trace_digest_is_tid_canonical():
    a, b = TraceRecorder(), TraceRecorder()
    for base, t in ((0, a), (1000, b)):  # same history, shifted tid space
        t.record(base + 1, "x", 0, 0, 100, "compute")
        t.record(base + 2, "y", 1, 0, 100, "compute")
        t.record_migration(100, base + 1, "x", 0, 1, False, "speed.pull")
    assert trace_digest(a) == trace_digest(b)


def test_trace_digest_sees_order_and_content():
    a, b, c = TraceRecorder(), TraceRecorder(), TraceRecorder()
    a.record(1, "x", 0, 0, 100, "compute")
    a.record(2, "y", 1, 0, 100, "compute")
    b.record(2, "y", 1, 0, 100, "compute")  # same segments, other order
    b.record(1, "x", 0, 0, 100, "compute")
    c.record(1, "x", 0, 0, 101, "compute")  # one boundary differs
    c.record(2, "y", 1, 0, 100, "compute")
    assert len({trace_digest(a), trace_digest(b), trace_digest(c)}) == 3


def test_run_digest_folds_all_parts():
    result, system = SMOKES["balance-interval"].run(seed=0)
    full = run_digest(result, system.trace, system.engine)
    assert full == run_digest(result, system.trace, system.engine)
    assert full != run_digest(result, system.trace)  # engine part matters
    assert full != run_digest(result)


def test_rerun_digests_identical_and_seed_sensitive():
    assert scenario_digest("balance-interval", seed=0) == scenario_digest(
        "balance-interval", seed=0
    )
    assert scenario_digest("balance-interval", seed=0) != scenario_digest(
        "balance-interval", seed=1
    )


# ----------------------------------------------------------------------
# differential determinism
# ----------------------------------------------------------------------
def test_hashseed_subprocess_digests_agree():
    # two fresh interpreters under different hash randomization must
    # reproduce the run bit-identically -- and match this process too
    a = subprocess_digest("balance-interval", hashseed=1)
    b = subprocess_digest("balance-interval", hashseed=2)
    assert a == b
    assert a == scenario_digest("balance-interval")


def test_observer_leg_in_process():
    assert differential_check("balance-interval", legs=("observers",)) == []


def test_workers_leg_serial_vs_parallel():
    assert differential_check("balance-interval", legs=("workers",)) == []


needs_native = pytest.mark.skipif(
    not backend_available("native"),
    reason="native backend unavailable (no C toolchain)",
)


@needs_native
def test_engines_leg_heap_vs_native():
    # the compiled backend must reproduce the heap's run digest bit for
    # bit (events, trace and engine fingerprint)
    assert differential_check("balance-interval", legs=("engines",)) == []


def test_engines_leg_reports_skip_without_native(monkeypatch):
    import repro.sim.backends as backends

    monkeypatch.setattr(
        backends, "backend_available", lambda name: name == "heap"
    )
    findings = differential_check("balance-interval", legs=("engines",))
    # not a vacuous pass: one warning naming the missing backend
    assert [(f.code, f.severity) for f in findings] == [("SAN008", "warning")]
    assert "skipped" in findings[0].message
    assert "native" in findings[0].message
    assert findings[0].context == "balance-interval[heap-vs-native]"


@needs_native
def test_scenario_digest_engine_parity_and_perturbation():
    heap = scenario_digest("balance-interval", engine="heap")
    assert heap == scenario_digest("balance-interval", engine="native")
    # the digest still discriminates real behaviour changes
    assert heap != scenario_digest("balance-interval", seed=1, engine="native")


def test_unknown_leg_rejected():
    with pytest.raises(ValueError, match="unknown differential legs"):
        differential_check("balance-interval", legs=("observers", "nope"))
