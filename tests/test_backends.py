"""The pluggable event-dispatch backends (repro.sim.backends).

The compiled ``native`` backend claims bit-identical behaviour to the
``heap`` reference.  The scenario golden digests enforce that end to
end; these tests pin the per-primitive drain semantics the claim rests
on -- same-instant FIFO order, lazy cancellation, ``until``/``stop``/
``step`` edge cases, compaction -- on both backends, plus a randomized
differential harness that drives both through identical
schedule/cancel churn and compares every observable.
"""

import gc
import random

import pytest

from repro.sim.backends import (
    ENGINE_BACKENDS,
    HeapEngine,
    NativeEngine,
    backend_available,
    backend_names,
    make_engine,
)
from repro.sim.engine import Engine, SimulationError

needs_native = pytest.mark.skipif(
    not backend_available("native"),
    reason="native backend unavailable (no C toolchain)",
)


class TestRegistry:
    def test_backend_names_default_first(self):
        assert backend_names() == ("heap", "native")

    def test_make_engine_types(self):
        assert type(make_engine("heap")) is HeapEngine

    @needs_native
    def test_make_engine_native_type(self):
        assert type(make_engine("native")) is NativeEngine

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_engine("btree")
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_engine("batched")  # the removed calendar-queue backend

    def test_backend_available(self):
        assert backend_available("heap")
        assert not backend_available("batched")
        assert not backend_available("btree")

    def test_all_backends_are_engines(self):
        for cls in ENGINE_BACKENDS.values():
            assert issubclass(cls, Engine)


class TestBatchedSemantics:
    """Drain semantics of same-instant event batches, on the heap.

    A "batch" is every event queued for one simulated instant.  Each
    case builds its engine through :attr:`backend`, so
    :class:`TestNativeBatchedSemantics` reruns the whole class against
    the compiled drain loop.
    """

    backend = "heap"

    def make(self, **kwargs):
        return make_engine(self.backend, **kwargs)

    def test_same_time_events_fire_in_seq_order(self):
        eng = self.make()
        fired = []
        for i in range(5):
            eng.schedule(10, lambda i=i: fired.append(i))
        eng.schedule(5, lambda: fired.append("early"))
        eng.run()
        assert fired == ["early", 0, 1, 2, 3, 4]

    def test_callback_scheduling_at_now_extends_the_batch(self):
        eng = self.make()
        fired = []

        def first():
            fired.append("first")
            eng.schedule(0, lambda: fired.append("appended"))

        eng.schedule(3, first)
        eng.schedule(3, lambda: fired.append("second"))
        eng.run()
        # the zero-delay event lands behind everything already queued
        # for t=3, exactly as the heap's (time, seq) order dictates
        assert fired == ["first", "second", "appended"]

    def test_schedule_in_past_raises(self):
        eng = self.make()
        with pytest.raises(SimulationError):
            eng.schedule(-1, lambda: None)
        eng.schedule(5, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(4, lambda: None)

    def test_cancel_is_lazy_and_pending_is_exact(self):
        eng = self.make()
        fired = []
        events = [eng.schedule(7, lambda i=i: fired.append(i)) for i in range(4)]
        assert eng.pending == 4
        events[1].cancel()
        events[2].cancel()
        events[2].cancel()  # idempotent
        assert eng.pending == 2
        eng.run()
        assert fired == [0, 3]
        assert eng.pending == 0
        assert eng.dispatched == 2

    def test_compaction_preserves_order_and_counts(self):
        eng = self.make()
        fired = []
        keep = []
        cancelled = []
        # enough churn to cross the compaction threshold several times
        for i in range(300):
            ev = eng.schedule(10 + (i % 10), lambda i=i: fired.append(i))
            (keep if i % 3 == 0 else cancelled).append(ev)
        for ev in cancelled:
            ev.cancel()
        assert eng.pending == len(keep)
        eng.run()
        survivors = [i for i in range(300) if i % 3 == 0]
        # within each timestamp the survivors keep insertion order, and
        # timestamps drain smallest first
        expected = sorted(survivors, key=lambda i: (10 + (i % 10), i))
        assert fired == expected

    def test_peek_time_skips_cancelled(self):
        eng = self.make()
        early = eng.schedule(2, lambda: None)
        eng.schedule(9, lambda: None)
        assert eng.peek_time() == 2
        early.cancel()
        assert eng.peek_time() == 9

    def test_until_purges_leading_cancelled_events(self):
        eng = self.make()
        fired = []
        eng.schedule(5, lambda: fired.append(5))
        doomed = [eng.schedule(40, lambda: None) for _ in range(3)]
        late = eng.schedule(50, lambda: fired.append(50))
        for ev in doomed:
            ev.cancel()
        eng.run(until=10)
        # cancelled entries leading the queue past ``until`` are purged
        # before the loop stops; the live one behind them stays queued
        assert fired == [5]
        assert eng.now == 10
        assert eng.pending == 1
        assert not any(ev.in_heap for ev in doomed)
        assert late.in_heap
        assert eng.peek_time() == 50

    def test_run_until_advances_clock_between_buckets(self):
        eng = self.make()
        fired = []
        eng.schedule(5, lambda: fired.append(5))
        eng.schedule(20, lambda: fired.append(20))
        eng.run(until=12)
        assert fired == [5]
        assert eng.now == 12
        eng.run()
        assert fired == [5, 20]

    def test_stop_mid_batch_leaves_rest_of_bucket(self):
        eng = self.make()
        fired = []
        eng.schedule(4, lambda: fired.append("a"))
        eng.schedule(4, eng.stop)
        eng.schedule(4, lambda: fired.append("b"))
        eng.run()
        assert fired == ["a"]
        eng.run()
        assert fired == ["a", "b"]

    def test_step_dispatches_exactly_one(self):
        eng = self.make()
        fired = []
        eng.schedule(1, lambda: fired.append("x"))
        eng.schedule(1, lambda: fired.append("y"))
        assert eng.step() is True
        assert fired == ["x"]
        assert eng.step() is True
        assert eng.step() is False
        assert fired == ["x", "y"]

    def test_max_events_limit(self):
        eng = self.make(max_events=10)

        def forever():
            eng.schedule(1, forever)

        eng.schedule(0, forever)
        with pytest.raises(SimulationError, match="event limit exceeded"):
            eng.run()

    def test_gc_restored_after_run_and_after_raise(self):
        assert gc.isenabled()
        eng = self.make()
        eng.schedule(1, lambda: None)
        eng.run()
        assert gc.isenabled()
        eng2 = self.make(max_events=1)
        eng2.schedule(0, lambda: eng2.schedule(1, lambda: None))
        eng2.schedule(2, lambda: None)
        with pytest.raises(SimulationError):
            eng2.run()
        assert gc.isenabled()

    def test_observers_see_every_live_event(self):
        eng = self.make()
        seen = []
        eng.observers.append(lambda ev: seen.append(ev.label))
        eng.schedule(1, lambda: None, label="a")
        dead = eng.schedule(1, lambda: None, label="dead")
        eng.schedule(2, lambda: None, label="b")
        dead.cancel()
        eng.run()
        assert seen == ["a", "b"]


@needs_native
class TestNativeBatchedSemantics(TestBatchedSemantics):
    """Every same-instant drain case again, on the compiled loop."""

    backend = "native"


def _churn(eng, seed, n=400):
    """Drive one backend through seeded schedule/cancel/stop churn.

    Pure function of ``seed``: both backends see byte-identical call
    sequences, so every observable (dispatch order, clock, counters)
    must agree.
    """
    rng = random.Random(seed)
    fired = []
    live = []

    def cb(tag):
        fired.append((eng.now, tag))
        for _ in range(rng.randrange(3)):
            tag2 = len(fired) * 1000 + rng.randrange(100)
            live.append(eng.schedule(rng.randrange(6), cb.__wrapped__(tag2)))
        if live and rng.random() < 0.3:
            live.pop(rng.randrange(len(live))).cancel()

    # small indirection so inner callbacks capture their tag eagerly
    cb.__wrapped__ = lambda tag: (lambda: cb(tag))

    for i in range(n):
        live.append(eng.schedule(rng.randrange(50), cb.__wrapped__(i)))
    eng.run(until=30)
    eng.step()
    eng.run()
    return fired


class TestDifferentialParity:
    @needs_native
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_heap_and_native_agree_under_churn(self, seed):
        heap_eng = make_engine("heap")
        native_eng = make_engine("native")
        a = _churn(heap_eng, seed)
        b = _churn(native_eng, seed)
        assert a == b
        assert heap_eng.fingerprint() == native_eng.fingerprint()
        assert heap_eng.pending == native_eng.pending

    def test_until_purge_keeps_pending_in_agreement(self):
        # cancelled events *past* until are purged while they lead the
        # queue; every backend must report the same pending afterwards
        engines = [make_engine(n) for n in backend_names()
                   if backend_available(n)]
        for eng in engines:
            eng.schedule(5, lambda: None)
            doomed = [eng.schedule(40, lambda: None) for _ in range(3)]
            eng.schedule(50, lambda: None)
            for ev in doomed:
                ev.cancel()
            eng.run(until=10)
        assert len({eng.pending for eng in engines}) == 1
        assert {eng.now for eng in engines} == {10}


class TestNativeBackend:
    """The compiled backend's build/cache/fallback machinery.

    Digest parity and churn parity are enforced above and in the golden
    scenario wall; these tests pin the toolchain-facing behaviour: the
    artifact cache makes the compile a one-time cost, machines without
    a compiler degrade to a clear error (and the rest of the suite
    skips), and the fused C path is actually exercised rather than
    silently falling back to generic dispatch.
    """

    @needs_native
    def test_artifact_cached_second_construction_does_not_compile(
        self, monkeypatch, tmp_path
    ):
        from repro.sim.backends import nativebuild

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(nativebuild, "_loaded", {})
        compiles = []
        real_compile = nativebuild._compile

        def counting_compile(cc, out_path):
            compiles.append(out_path)
            return real_compile(cc, out_path)

        monkeypatch.setattr(nativebuild, "_compile", counting_compile)
        NativeEngine()
        assert len(compiles) == 1
        # the process-level dict was cleared, so this exercises the
        # on-disk artifact path: dlopen, no compiler invocation
        monkeypatch.setattr(nativebuild, "_loaded", {})
        NativeEngine()
        assert len(compiles) == 1

    def test_no_toolchain_raises_native_unavailable(self, monkeypatch):
        from repro.sim.backends import NativeUnavailableError, nativebuild

        monkeypatch.setattr(nativebuild, "_find_compiler", lambda: None)
        monkeypatch.setattr(nativebuild, "_loaded", {})
        monkeypatch.setenv("REPRO_NATIVE_CACHE", "/nonexistent/never-here")
        with pytest.raises(NativeUnavailableError, match="C compiler"):
            NativeEngine()
        assert nativebuild.native_available() is False
        assert backend_available("native") is False

    @needs_native
    def test_fused_path_is_exercised(self):
        from repro.harness.scenarios import scenario_smokes
        from repro.sim.backends.nativebuild import native_stats

        before = native_stats()
        scenario_smokes()["ep-speedup"].run(engine="native")
        after = native_stats()
        fused = after["fused"] - before["fused"]
        generic = after["generic"] - before["generic"]
        # the CFS core event dominates every scenario; if the C twin
        # stopped matching the dispatch signature this would collapse
        # to zero while digests stayed green via the Python fallback
        assert fused > generic
        assert fused > 0

    @needs_native
    def test_step_falls_back_to_python_single_dispatch(self):
        eng = make_engine("native")
        fired = []
        eng.schedule(1, lambda: fired.append("x"))
        eng.schedule(1, lambda: fired.append("y"))
        assert eng.step() is True
        assert fired == ["x"]
        eng.run()
        assert fired == ["x", "y"]

    @needs_native
    def test_callback_exception_propagates(self):
        eng = make_engine("native")

        def boom():
            raise RuntimeError("callback exploded")

        eng.schedule(1, boom)
        with pytest.raises(RuntimeError, match="callback exploded"):
            eng.run()

    @needs_native
    def test_max_events_limit_native(self):
        eng = make_engine("native", max_events=10)

        def forever():
            eng.schedule(1, forever)

        eng.schedule(0, forever)
        with pytest.raises(SimulationError, match="event limit exceeded"):
            eng.run()

    @needs_native
    def test_observers_see_every_live_event_native(self):
        eng = make_engine("native")
        seen = []
        eng.observers.append(lambda ev: seen.append(ev.label))
        eng.schedule(1, lambda: None, label="a")
        dead = eng.schedule(1, lambda: None, label="dead")
        eng.schedule(2, lambda: None, label="b")
        dead.cancel()
        eng.run()
        assert seen == ["a", "b"]

    @needs_native
    def test_gc_disabled_during_run_and_restored(self):
        eng = make_engine("native")
        seen = []
        eng.schedule(1, lambda: seen.append(gc.isenabled()))
        eng.run()
        assert seen == [False]
        assert gc.isenabled()

    @needs_native
    def test_non_cfs_params_are_delegated_and_match_heap(self):
        # a CFS core given O(1) slice params: the C twin only replicates
        # CfsParams slice math, so it hands each core event back to
        # CoreSim._on_core_event -- a path no scenario smoke takes
        from repro.analysis.sanitizer import run_digest
        from repro.apps.workloads import AppSpec
        from repro.harness.experiment import run_app
        from repro.sched.cfs import O1Params
        from repro.sim.backends.nativebuild import native_stats
        from repro.topology import presets

        app = AppSpec(bench="ep.C", n_threads=3, total_compute_us=60_000)

        def digest(engine):
            result, system = run_app(
                presets.tigerton, app, balancer="load", cores=2, seed=1,
                cfs_params=O1Params(), trace=True, return_system=True,
                engine=engine,
            )
            assert system.scheduler == "cfs"
            return run_digest(result, system.trace, system.engine)

        heap = digest("heap")
        before = native_stats()
        native = digest("native")
        after = native_stats()
        assert after["delegated"] > before["delegated"]
        assert native == heap

    def test_unusable_cache_dir_is_unavailable_not_an_oserror(
        self, monkeypatch, tmp_path
    ):
        from repro.sim.backends import NativeUnavailableError, nativebuild

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a regular file")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(blocker / "x"))
        monkeypatch.setattr(nativebuild, "_loaded", {})
        # reach the cache write whether or not this host has a compiler
        monkeypatch.setattr(nativebuild, "_find_compiler", lambda: "cc")
        with pytest.raises(NativeUnavailableError, match="REPRO_NATIVE_CACHE"):
            nativebuild.load_native_lib()
        assert backend_available("native") is False

    @needs_native
    def test_corrupt_artifact_is_rebuilt(self, monkeypatch, tmp_path):
        from repro.sim.backends import NativeUnavailableError, nativebuild

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(nativebuild, "_loaded", {})
        artifact = tmp_path / f"engine_core-{nativebuild._source_digest()}.so"
        garbage = b"\x00not an ELF object\xff" * 64
        # without a compiler the bad entry is dropped and reported
        artifact.write_bytes(garbage)
        monkeypatch.setattr(nativebuild, "_find_compiler", lambda: None)
        with pytest.raises(NativeUnavailableError, match="C compiler"):
            nativebuild.load_native_lib()
        assert not artifact.exists()
        # with one, the same bad entry is rebuilt in place
        artifact.write_bytes(garbage)
        monkeypatch.undo()
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(nativebuild, "_loaded", {})
        assert backend_available("native") is True
        assert artifact.read_bytes() != garbage
