"""End-to-end tests for the serving daemon (repro.serve.server).

Each test boots a real daemon on an ephemeral port (thread-backend
workers unless the test is specifically about process kills) and talks
to it through :class:`repro.serve.ServeClient` -- the same HTTP path
production traffic takes.
"""

import json
import threading
import time

import pytest

from repro.apps.workloads import AppSpec
from repro.harness.parallel import RunSpec
from repro.metrics.export import result_to_dict
from repro.metrics.results import AppRunResult
from repro.serve import (
    BackgroundServer,
    ServeClient,
    ServeConfig,
    ServeError,
    TenantConfig,
)
from repro.serve.server import SNAPSHOT_NAME
from repro.service import run_specs_cached


def _spec(seed=0, balancer="speed"):
    app = AppSpec(bench="ep.C", n_threads=4, total_compute_us=40_000)
    return RunSpec.make(
        "tigerton", app, balancer=balancer, cores=2, seed=seed
    )


def _fake_result(spec):
    return AppRunResult(
        app_name="fake",
        balancer=spec.balancer,
        n_cores=2,
        n_threads=2,
        seed=spec.seed,
        elapsed_us=1_000,
        total_work_us=2_000,
        migrations=0,
        thread_exec_us=[1_000, 1_000],
        thread_compute_us=[1_000, 1_000],
        thread_finish_us=[1_000, 1_000],
    )


#: module-level counters shared with thread-backend workers
_RUN_LOG: list[str] = []
_RUN_LOCK = threading.Lock()


def _counting_runner(spec):
    with _RUN_LOCK:
        _RUN_LOG.append(f"{spec.balancer}/{spec.seed}")
    time.sleep(0.01)
    return _fake_result(spec)


def _slow_runner(spec):
    with _RUN_LOCK:
        _RUN_LOG.append(f"{spec.balancer}/{spec.seed}")
    time.sleep(0.05)
    return _fake_result(spec)


@pytest.fixture(autouse=True)
def _reset_run_log():
    with _RUN_LOCK:
        _RUN_LOG.clear()
    yield


def self_store_has(bg, digest):
    return bg.server.store.contains(digest)


def _boot(tmp_path, **overrides):
    config = ServeConfig(
        store_root=str(tmp_path / "serve-store"),
        port=0,
        backend="thread",
        **overrides,
    )
    return BackgroundServer(config).start()


class TestParity:
    def test_served_results_byte_identical_to_direct(self, tmp_path):
        """The correctness bar: serve == run_specs_cached, byte for byte."""
        specs = [_spec(seed=7, balancer=b) for b in ("speed", "load")]
        bg = _boot(tmp_path, workers=2)
        try:
            client = ServeClient(bg.base_url)
            resp = client.submit(specs, tenant="parity")
            views = [
                client.wait(j["digest"], poll_s=0.02, timeout_s=60)
                for j in resp["jobs"]
            ]
            assert all(v["state"] == "done" for v in views)
            served = {
                v["digest"]: client.result(v["digest"])["result"]
                for v in views
            }
        finally:
            bg.drain()

        direct = run_specs_cached(
            specs, store=str(tmp_path / "direct-store"), workers=1
        )
        from repro.store.keys import spec_digest

        for spec, result in zip(specs, direct):
            a = json.dumps(served[spec_digest(spec)], sort_keys=True)
            b = json.dumps(result_to_dict(result), sort_keys=True)
            assert a == b

    def test_restart_serves_from_store_without_rerun(self, tmp_path):
        spec = _spec(seed=1)
        bg = _boot(tmp_path, workers=1, runner=_counting_runner)
        try:
            client = ServeClient(bg.base_url)
            (job,) = client.submit([spec])["jobs"]
            assert client.wait(job["digest"], poll_s=0.02)["state"] == "done"
        finally:
            bg.drain()
        assert len(_RUN_LOG) == 1

        bg2 = _boot(tmp_path, workers=1, runner=_counting_runner)
        try:
            client = ServeClient(bg2.base_url)
            (job,) = client.submit([spec])["jobs"]
            assert job["state"] == "cached"  # store hit, no queue slot
            snap = client.metrics()
            assert snap["cached"] == 1
        finally:
            bg2.drain()
        assert len(_RUN_LOG) == 1  # never re-executed


class TestDedup:
    def test_same_digest_executes_once(self, tmp_path):
        spec = _spec(seed=2)
        bg = _boot(tmp_path, workers=1, runner=_counting_runner)
        try:
            client = ServeClient(bg.base_url)
            digest = client.submit([spec, spec])["jobs"][0]["digest"]
            client.submit([spec])  # resubmission attaches, never re-runs
            client.wait(digest, poll_s=0.02, timeout_s=30)
            snap = client.metrics()
            assert snap["submitted"] == 3
            assert snap["deduped"] >= 1
        finally:
            bg.drain()
        assert len(_RUN_LOG) == 1

    def test_concurrent_submitters_one_execution(self, tmp_path):
        spec = _spec(seed=3)
        bg = _boot(tmp_path, workers=1, runner=_counting_runner)
        try:
            url = bg.base_url
            views, errors = [], []

            def submit():
                try:
                    client = ServeClient(url)
                    (job,) = client.submit([spec])["jobs"]
                    views.append(client.wait(job["digest"], poll_s=0.02))
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert {v["state"] for v in views} <= {"done", "cached"}
        finally:
            bg.drain()
        assert len(_RUN_LOG) == 1


class TestSse:
    def test_stream_replays_full_lifecycle_in_order(self, tmp_path):
        spec = _spec(seed=4)
        bg = _boot(tmp_path, workers=1, runner=_slow_runner)
        try:
            client = ServeClient(bg.base_url)
            (job,) = client.submit([spec])["jobs"]
            events = list(client.events(job["digest"]))
        finally:
            bg.drain()
        names = [e for e, _ in events]
        assert names[-1] == "end"
        states = [d["state"] for e, d in events if e == "status"]
        # the full ordered lifecycle, even if we subscribed mid-run
        assert states == ["pending", "running", "done"]
        assert events[-1][1]["state"] == "done"

    def test_stream_after_terminal_replays_and_ends(self, tmp_path):
        spec = _spec(seed=5)
        bg = _boot(tmp_path, workers=1, runner=_counting_runner)
        try:
            client = ServeClient(bg.base_url)
            (job,) = client.submit([spec])["jobs"]
            client.wait(job["digest"], poll_s=0.02)
            events = list(client.events(job["digest"]))
        finally:
            bg.drain()
        states = [d["state"] for e, d in events if e == "status"]
        assert states == ["pending", "running", "done"]

    def test_unknown_job_events_404(self, tmp_path):
        bg = _boot(tmp_path, workers=1)
        try:
            client = ServeClient(bg.base_url)
            with pytest.raises(ServeError) as err:
                list(client.events("ab" * 32))
            assert err.value.status == 404
        finally:
            bg.drain()


class TestBackpressure:
    def test_over_rate_batch_gets_429_with_retry_after(self, tmp_path):
        tiny = TenantConfig(name="tiny", rate=1.0, burst=3.0, queue_limit=64)
        bg = _boot(
            tmp_path, workers=1, tenants=(tiny,), runner=_counting_runner
        )
        try:
            client = ServeClient(bg.base_url)
            specs = [_spec(seed=s) for s in range(6)]
            with pytest.raises(ServeError) as err:
                client.submit(specs, tenant="tiny")
            assert err.value.status == 429
            assert err.value.retry_after_s > 0
            # the rejection admitted nothing
            snap = client.metrics()
            assert snap["tenants"]["tiny"]["queue_depth"] == 0
            assert snap["rejected"] == 6
            # a within-burst batch still goes through afterwards
            resp = client.submit([_spec(seed=9)], tenant="tiny")
            client.wait(resp["jobs"][0]["digest"], poll_s=0.02)
        finally:
            bg.drain()

    def test_queue_overflow_gets_429(self, tmp_path):
        tiny = TenantConfig(name="tiny", rate=1000.0, burst=1000.0, queue_limit=2)
        bg = _boot(tmp_path, workers=1, tenants=(tiny,), runner=_slow_runner)
        try:
            client = ServeClient(bg.base_url)
            with pytest.raises(ServeError) as err:
                client.submit([_spec(seed=s) for s in range(8)], tenant="tiny")
            assert err.value.status == 429
        finally:
            bg.drain()

    def test_invalid_spec_rejected_with_400(self, tmp_path):
        bg = _boot(tmp_path, workers=1)
        try:
            client = ServeClient(bg.base_url)
            with pytest.raises(ServeError) as err:
                client.submit_wires([{"kind": "nope"}])
            assert err.value.status == 400
        finally:
            bg.drain()

    def test_unknown_engine_rejected_with_400(self, tmp_path):
        from repro.serve.protocol import spec_to_wire

        bg = _boot(tmp_path, workers=1, runner=_counting_runner)
        try:
            client = ServeClient(bg.base_url)
            wire = spec_to_wire(_spec())
            wire["engine"] = "batched"
            with pytest.raises(ServeError) as err:
                client.submit_wires([wire])
            assert err.value.status == 400
            assert "unknown engine backend" in str(err.value)
            # the rejection admitted nothing and ran nothing
            snap = client.metrics()
            assert snap["submitted"] == 0 and snap["admitted"] == 0
            assert snap["tenants"].get("default", {}).get("queue_depth", 0) == 0
            assert _RUN_LOG == []
        finally:
            bg.drain()


class TestFairness:
    def test_three_tenant_overload_no_starvation(self, tmp_path):
        """The acceptance scenario: a flood cannot starve small tenants."""
        bg = _boot(tmp_path, workers=1, runner=_counting_runner, window_s=60.0)
        try:
            client = ServeClient(bg.base_url)
            flood = [_spec(seed=100 + s) for s in range(20)]
            alice = [_spec(seed=200 + s) for s in range(3)]
            bob = [_spec(seed=300 + s) for s in range(3)]
            client.submit(flood, tenant="flood")
            a_jobs = client.submit(alice, tenant="alice")["jobs"]
            b_jobs = client.submit(bob, tenant="bob")["jobs"]
            for j in a_jobs + b_jobs:
                client.wait(j["digest"], poll_s=0.02, timeout_s=60)
            snap = client.metrics()
            # the flood is still deep in queue when the small tenants
            # are fully served -- speed-aware dispatch interleaved them
            assert snap["tenants"]["flood"]["queue_depth"] > 0
            assert snap["tenants"]["alice"]["completed"] == 3
            assert snap["tenants"]["bob"]["completed"] == 3
            # drain the rest so shutdown has nothing in flight
            for j in client.jobs(tenant="flood"):
                client.wait(j["digest"], poll_s=0.02, timeout_s=60)
        finally:
            bg.drain()


class TestDrain:
    def test_drain_snapshots_and_resume_runs_each_job_once(self, tmp_path):
        specs = [_spec(seed=s) for s in range(8)]
        bg = _boot(tmp_path, workers=1, runner=_slow_runner)
        client = ServeClient(bg.base_url)
        digests = [j["digest"] for j in client.submit(specs)["jobs"]]
        bg.drain()  # SIGTERM path: finish in-flight, snapshot the rest

        snapshot_path = tmp_path / "serve-store" / SNAPSHOT_NAME
        ran_before = len(_RUN_LOG)
        assert 0 < ran_before < len(specs)  # drain beat the queue
        snapshot = json.loads(snapshot_path.read_text())
        snapshot_digests = {j["digest"] for j in snapshot["jobs"]}
        assert len(snapshot["jobs"]) == len(specs) - ran_before
        assert snapshot_digests <= set(digests)

        bg2 = _boot(tmp_path, workers=1, runner=_slow_runner)
        try:
            assert not snapshot_path.exists()  # consumed on resume
            client = ServeClient(bg2.base_url)
            # resubmit the full batch: pre-drain completions come back
            # as store hits, snapshot-resumed jobs dedup onto the queue
            client.submit(specs)
            views = [
                client.wait(d, poll_s=0.02, timeout_s=60) for d in digests
            ]
            assert {v["state"] for v in views} <= {"done", "cached"}
            assert all(self_store_has(bg2, d) for d in digests)
        finally:
            bg2.drain()
        # every job ran exactly once across both daemon lifetimes: the
        # pre-drain completions were never re-executed on resume
        assert len(_RUN_LOG) == len(specs)
        assert len(set(_RUN_LOG)) == len(specs)


class TestTimeouts:
    def test_hung_worker_killed_and_job_fails_with_timeout(self, tmp_path):
        config = ServeConfig(
            store_root=str(tmp_path / "serve-store"),
            port=0,
            workers=1,
            backend="process",
            runner=_hanging_runner,
            job_timeout_s=0.5,
            max_attempts=1,
            monitor_interval_s=0.05,
        )
        bg = BackgroundServer(config).start()
        try:
            client = ServeClient(bg.base_url)
            (job,) = client.submit([_spec(seed=6)])["jobs"]
            view = client.wait(job["digest"], poll_s=0.05, timeout_s=30)
            assert view["state"] == "failed"
            assert "timeout" in view["error"]
            assert client.metrics()["timeouts"] == 1
        finally:
            bg.drain()


def _hanging_runner(spec):
    time.sleep(600)
    return _fake_result(spec)  # pragma: no cover - killed before returning
