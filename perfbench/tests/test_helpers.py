"""Tests of the benchmark's own helpers (no simulation runs here).

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import statistics

import pytest

import run
from e2e import artifacts, common, servemix
from e2e.hostspeed import REF_S, SpeedTrack
from e2e.stats import (
    due_latencies,
    hd_percentile,
    percentile,
    quartile_spread,
    self_times,
    tail,
    tail_percentile,
    union_length,
)
from e2e.trace import layer_of, sum_counts


@pytest.mark.parametrize(
    "n, p",
    [(5, 50), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90),
     (200, 95), (999, 95), (1000, 99), (9999, 99), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p
    assert round(n * (100 - p) / 100, 9) >= 10 or p == 50


def test_tail_counts_failures_as_beyond_any_limit():
    ok = [float(i) for i in range(1, 1001)]
    p, value, n = tail(ok)
    assert (p, n) == (99, 1000) and 985 < value < 995
    # ten failures at the top carry weight at p99: the tail is infinite
    p, value, n = tail(ok[:990], failed=10)
    assert (p, n) == (99, 1000) and value == math.inf
    p, value, n = tail(ok[:90], failed=20)
    assert p == 90 and value == math.inf
    # failures far beyond the percentile carry no weight
    p, value, n = tail(ok[:900], failed=1)
    assert p == 95 and math.isfinite(value)


def test_hd_percentile_weighs_every_order_statistic():
    assert hd_percentile([7.0], 50) == 7.0
    assert hd_percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    # symmetric weights: the median of two is their mean
    assert hd_percentile([10.0, 30.0], 50) == pytest.approx(20.0)
    # two clusters: the order-statistic median jumps with one job moving
    # across, the weighted one moves by a fraction of the gap
    low, high = [10.0] * 20, [30.0] * 19
    a = hd_percentile(low + high + [10.5], 50)
    b = hd_percentile(low + high + [29.5], 50)
    jump = percentile(low + high + [29.5], 50) - percentile(low + high + [10.5], 50)
    assert jump > 9 and 0 < b - a < jump / 3
    with pytest.raises(ValueError):
        hd_percentile([], 50)
    with pytest.raises(ValueError):
        hd_percentile([1.0], 100)


def test_percentile_interpolates_and_handles_inf():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([1.0, math.inf], 0) == 1.0
    assert percentile([1.0, math.inf, math.inf], 50) == math.inf
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.4, 12.0, 9.9, 10.1, 10.7, 9.0, 10.2]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert quartile_spread([5.0]) == 0.0


def test_latency_counts_from_due_time_when_the_generator_runs_late():
    due = [0.0, 0.010, 0.020]
    # the generator stalled 30 ms: the last two jobs went out late
    sent = [0.0, 0.040, 0.041]
    done = [s + 0.005 for s in sent]
    lat = due_latencies(due, done)
    assert lat == pytest.approx([0.005, 0.035, 0.026])
    # timing from the send would have hidden the stall
    assert max(d - s for s, d in zip(sent, done)) == pytest.approx(0.005)
    with pytest.raises(ValueError):
        due_latencies([0.0], [])


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        (1, None, 0.0, 10.0),  # root
        (2, 1, 1.0, 4.0),      # child
        (3, 1, 3.0, 6.0),      # overlapping child: 1..6 covered once
        (4, 2, 2.0, 3.0),      # grandchild, only affects span 2
        (5, 1, 9.0, 12.0),     # runs past its parent: clipped to 9..10
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10 - 5 - 1)
    assert st[2] == pytest.approx(3 - 1)
    assert st[3] == pytest.approx(3)
    assert st[4] == pytest.approx(1)
    assert st[5] == pytest.approx(3)


def test_layer_split_charges_run_app_by_samples():
    spans = [
        (1, None, "scenario", 0.0, 10.0, None),
        (2, 1, "store.put", 1.0, 2.0, None),
        (3, 1, "run_app", 2.0, 9.5, None),
    ]
    layers = run.layer_self_times(spans, {"sim": 1, "sched": 2, "harness": 2})
    assert layers["scenario"] == pytest.approx(1.5)
    assert layers["store"] == pytest.approx(1.0)
    assert layers["sim"] == pytest.approx(1.5)
    assert layers["sched"] == pytest.approx(3.0)
    assert layers["harness"] == pytest.approx(3.0)
    assert sum(layers.values()) == pytest.approx(10.0)
    # the scenario function's own time is not explained by any layer
    assert run.attributed_s(layers) == pytest.approx(8.5)


def test_coverage_fails_when_a_layer_is_missing():
    # a package outside the named layers ate half of run_app, and a
    # second run_app was never sampled: both are left unattributed
    spans = [
        (1, None, "scenario", 0.0, 10.0, None),
        (2, 1, "run_app", 0.0, 4.0, None),
        (3, None, "scenario", 10.0, 12.0, None),
    ]
    layers = run.layer_self_times(spans, {"sim": 1, "metrics": 1})
    assert layers["other"] == pytest.approx(2.0)
    assert layers["scenario"] == pytest.approx(8.0)
    assert run.attributed_s(layers) == pytest.approx(2.0)
    res = run.Result(run.PER_LAYER)
    run.coverage(res, "fig5-hog", 12.0, run.attributed_s(layers))
    assert res.values["trace.unattributed_s"] == pytest.approx(10.0)
    assert res.problems and "unattributed" in res.problems[0]

    unsampled = run.layer_self_times([(1, None, "run_app", 0.0, 3.0, None)], {})
    assert unsampled == {"unsampled": pytest.approx(3.0)}
    assert run.attributed_s(unsampled) == 0.0

    res = run.Result(run.PER_LAYER)
    run.coverage(res, "fig5-hog", 10.0, 9.7)
    assert res.values["trace.unattributed_frac"] == pytest.approx(0.03)
    assert not res.problems


def _track(times: list[float], probes: list[float]) -> SpeedTrack:
    track = SpeedTrack()
    track.times, track.probes = times, probes
    track.spans = [(t - 0.001, t + 0.001) for t in times]
    return track


def test_host_speed_weights_each_stretch_by_its_length():
    # at the reference speed for 1 s, then twice as slow for 3 s
    track = _track([0.0, 1.0, 4.0], [REF_S, REF_S, 2 * REF_S])
    # stretches valued at the mean of their ends: 1 s at REF_S, 3 s at 1.5 REF_S
    assert track.speed() == pytest.approx(4.0 / (1.0 + 3.0 * 1.5))
    assert track.speed(0, 1) == pytest.approx(1.0)
    assert track.speed(1, 2) == pytest.approx(1 / 1.5)
    # one probe: its own speed
    assert _track([2.0], [4 * REF_S]).speed() == pytest.approx(0.25)
    with pytest.raises(ValueError):
        track.speed(2, 1)


def test_probing_time_is_left_out_of_the_wall_time():
    track = _track([1.0, 2.0], [REF_S, REF_S])
    assert track.probing_s(0.0, 3.0) == pytest.approx(0.004)
    assert track.probing_s(1.0, 1.5) == pytest.approx(0.001)  # half a probe
    assert track.probing_s(5.0, 6.0) == 0.0


def test_probe_measures_the_host():
    track = SpeedTrack()
    track.probe()
    track.probe()
    assert len(track) == 2 and all(p > 0 for p in track.probes)
    assert track.times[0] < track.times[1] and track.speed() > 0


def test_regeneration_count_does_not_follow_the_host():
    fig3, fig5 = artifacts.ARTIFACTS["fig3-yield"], artifacts.ARTIFACTS["fig5-hog"]
    assert fig3.regenerations(30) == 1 and fig5.regenerations(30) == 2
    assert fig5.regenerations(1) == 1  # at least one


def test_layer_of_maps_modules_to_packages():
    assert layer_of("repro.sim.engine") == "sim"
    assert layer_of("repro.system") == "system"
    assert layer_of("repro.cli") == "other"
    assert layer_of("json.encoder") is None
    assert layer_of("repro") is None


def test_sum_counts_skips_per_run_fields():
    rows = [{"sim.events": 3, "digest": "ab", "wall_s": 0.5},
            {"sim.events": 4, "digest": "cd", "wall_s": 0.7}]
    assert sum_counts(rows) == {"sim.events": 7}


def test_tripwire_names_the_count_that_moved(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "STATE_DIR", tmp_path)
    assert common.check_counts("w", 1, "in", {"a": 1, "b": 2}, "p") == []
    assert common.check_counts("w", 1, "in", {"a": 1, "b": 2, "c": 5}, "p") == []
    moved = common.check_counts("w", 1, "in", {"a": 1, "b": 3, "c": 5}, "p")
    assert moved == ["b: 2 before, 3 now"]
    # the moved count is not recorded: the same drift fails again
    assert common.check_counts("w", 1, "in", {"a": 1, "b": 3, "c": 5}, "p") == moved
    assert common.check_counts("w", 2, "in", {"a": 9}, "p") == []  # another seed
    # other inputs for the same seed (the workload changed): a fresh record
    assert common.check_counts("w", 1, "other", {"a": 9}, "p") == []
    # another program may move counts on purpose: held to its own runs only
    assert common.check_counts("w", 1, "in", {"a": 1, "b": 3}, "q") == []
    assert common.check_counts("w", 1, "in", {"a": 1, "b": 4}, "q") == [
        "b: 3 before, 4 now"
    ]


def test_program_hash_follows_the_sources(tmp_path, monkeypatch):
    src, bench = tmp_path / "src", tmp_path / "perfbench"
    (src / "repro").mkdir(parents=True)
    (src / "repro" / "__pycache__").mkdir()
    bench.mkdir()
    (src / "repro" / "a.py").write_text("x = 1\n")
    monkeypatch.setattr(common, "ROOT", tmp_path)
    monkeypatch.setattr(common, "SRC", src)
    monkeypatch.setattr(common, "BENCH_DIR", bench)
    first = common.program_hash()
    (src / "repro" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    assert common.program_hash() == first  # byte-code does not count
    (src / "repro" / "a.py").write_text("x = 2\n")
    assert common.program_hash() != first


def test_compare_reps_names_the_repetition():
    assert common.compare_reps([{"x": 1}, {"x": 1}, {"x": 2}]) == [
        "x: 1 in repetition 0, 2 in repetition 2"
    ]


def test_workload_inputs_follow_the_seed():
    for art in artifacts.ARTIFACTS.values():
        s = art.seeds(3)
        assert s == art.seeds(3) and len(set(s)) == art.seeds_per_run
        assert all(0 <= x < artifacts.SEED_POOL for x in s)
        assert art.seeds(4) != s
    a, b = servemix.make_plan(7, 20), servemix.make_plan(7, 20)
    assert a == b and servemix.make_plan(8, 20) != a
    fresh = [x.seed for x in a.arrivals if not x.prefilled]
    fresh += [s for _, seeds in a.bursts for s in seeds]
    assert [t for t, _ in a.bursts] == ["alpha", "beta"] * (servemix.BURSTS // 2)
    assert len(fresh) == len(set(fresh))  # every fresh job is a new digest
    assert not set(fresh) & set(a.prefill)
    cached = [x for x in a.arrivals if x.prefilled]
    assert {x.seed for x in cached} <= set(a.prefill)
    assert len(cached) == round(servemix.CACHED_SHARE * len(a.arrivals))
    dues = [x.due for x in a.arrivals]
    assert dues == sorted(dues) and dues[-1] < servemix.PHASE_A_SHARE * 20
    # phase A is cut into one segment per burst, in order of due time
    segments = [x.segment for x in a.arrivals]
    assert segments == sorted(segments)
    assert set(segments) == set(range(servemix.BURSTS))
    assert all(0 <= x.due - x.segment * a.segment_s < a.segment_s for x in a.arrivals)


def test_benchmark_json_matches_what_the_runner_reports():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert any(m["name"] == "setup_s" and m["better"] == "lower"
               for m in spec["end_to_end"])
