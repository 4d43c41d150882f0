"""Tests for the content-addressed experiment store (repro.store)."""

import gzip
import json
import os

import pytest

from repro.analysis.sanitizer import run_digest
from repro.apps.workloads import AppSpec
from repro.core.speed_balancer import SpeedBalancerConfig
from repro.harness.parallel import RunSpec, run_spec
from repro.store import (
    ResultStore,
    StoreError,
    StoreIntegrityError,
    UnstorableSpecError,
    canonical_json,
    canonical_value,
    digest_of,
    function_ref,
    spec_digest,
    spec_key,
    sweep_cell_key,
)


def _spec(seed=0, balancer="speed", **params):
    app = AppSpec(bench="ep.C", n_threads=4, total_compute_us=40_000)
    return RunSpec.make(
        "tigerton", app, balancer=balancer, cores=2, seed=seed, **params
    )


def _traced(spec):
    """Run a spec in-process with tracing; (result, trace)."""
    from repro.harness.experiment import run_app
    from repro.harness.parallel import resolve_machine

    result, system = run_app(
        resolve_machine(spec.machine), spec.app, balancer=spec.balancer,
        cores=list(range(spec.cores)), seed=spec.seed, trace=True,
        return_system=True,
    )
    return result, system.trace


def _index_files(store):
    """The snapshot and every journal: all the index there is."""
    return sorted(store.root.glob("index.json")) + sorted(
        store.root.glob("index-*.log")
    )


def _journal_lines(store):
    (journal,) = sorted(store.root.glob("index-*.log"))
    return journal.read_bytes().splitlines(keepends=True)


def _module_runner(a, b):
    """Module-level sweep runner (addressable by function_ref)."""
    return a * b


class TestCanonicalKeys:
    def test_digest_is_hex_sha256(self):
        d = spec_digest(_spec())
        assert len(d) == 64
        assert all(c in "0123456789abcdef" for c in d)

    def test_digest_stable_across_calls(self):
        assert spec_digest(_spec()) == spec_digest(_spec())

    def test_digest_sensitive_to_every_field(self):
        base = spec_digest(_spec())
        assert spec_digest(_spec(seed=1)) != base
        assert spec_digest(_spec(balancer="load")) != base
        other_app = RunSpec.make(
            "tigerton",
            AppSpec(bench="cg.B", n_threads=4, total_compute_us=40_000),
            balancer="speed", cores=2, seed=0,
        )
        assert spec_digest(other_app) != base

    def test_params_order_canonical(self):
        from repro.sched.cfs import CfsParams

        a = _spec(speed_config=SpeedBalancerConfig(), cfs_params=CfsParams())
        b = _spec(cfs_params=CfsParams(), speed_config=SpeedBalancerConfig())
        assert spec_digest(a) == spec_digest(b)

    def test_dataclass_canonical_form(self):
        value = canonical_value(AppSpec(bench="ep.C", n_threads=2))
        assert value["__dataclass__"].endswith(":AppSpec")
        assert value["fields"]["bench"] == "ep.C"

    def test_enum_keyed_dict_canonicalizes(self):
        # SpeedBalancerConfig.level_enabled is keyed by DomainLevel (an
        # IntEnum, so members canonicalize as their stable int values);
        # the non-string keys force the sorted __dict__ pair-list form
        value = canonical_value(SpeedBalancerConfig())
        text = canonical_json(value)
        assert '"__dict__"' in text
        pairs = value["fields"]["level_enabled"]["__dict__"]
        assert pairs == sorted(pairs)
        assert digest_of(value) == digest_of(canonical_value(SpeedBalancerConfig()))

    def test_plain_enum_member_canonicalizes_by_name(self):
        import enum

        class Mode(enum.Enum):
            A = "a"
            B = "b"

        # local enums cannot be resolved back -- rejected, not mis-keyed
        with pytest.raises(UnstorableSpecError):
            canonical_value(Mode.A)
        from repro.sched.task import WaitMode

        value = canonical_value(WaitMode.YIELD)
        assert value == {"__enum__": "repro.sched.task:WaitMode.YIELD"}

    def test_lambda_app_rejected_before_any_run(self):
        spec = RunSpec.make(
            "tigerton", lambda system: None, balancer="speed", cores=2, seed=0,
        )
        with pytest.raises(UnstorableSpecError):
            spec_key(spec)

    def test_function_ref_roundtrip_and_rejection(self):
        ref = function_ref(_module_runner)
        assert ref.endswith(":_module_runner")
        with pytest.raises(UnstorableSpecError):
            function_ref(lambda: None)

        def local():
            pass

        with pytest.raises(UnstorableSpecError):
            function_ref(local)

    def test_sweep_cell_key_identifies_runner_and_assignment(self):
        k1 = sweep_cell_key(_module_runner, {"a": 1, "b": 2})
        k2 = sweep_cell_key(_module_runner, {"b": 2, "a": 1})
        assert digest_of(k1) == digest_of(k2)
        assert digest_of(k1) != digest_of(
            sweep_cell_key(_module_runner, {"a": 1, "b": 3})
        )


class TestStoreRoundTrip:
    def test_put_get_parity(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        fresh = run_spec(spec)
        digest = store.put(spec, fresh)
        assert digest == spec_digest(spec)
        assert store.contains(spec)
        entry = store.get(digest)
        assert entry is not None
        assert entry.kind == "run"
        # the read-back result is byte-identical to the fresh one
        assert run_digest(entry.result) == run_digest(fresh)

    def test_get_absent_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.get("0" * 64) is None
        assert not store.contains(_spec())

    def test_duplicate_put_is_noop(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result = run_spec(spec)
        store.put(spec, result)
        store.put(spec, result)
        assert len(store.entries()) == 1
        assert store.stats().next_seq == 1

    def test_trace_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result, trace = _traced(spec)
        digest = store.put(spec, result, trace=trace)
        entry = store.get(digest)
        assert entry.has_trace
        loaded = store.load_trace(digest)
        assert loaded.segments == trace.segments
        assert loaded.migrations == trace.migrations
        assert loaded.limit == trace.limit

    def test_value_kind_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = sweep_cell_key(_module_runner, {"a": 3, "b": 4})
        digest = store.put(key, 12)
        entry = store.get(digest)
        assert entry.kind == "value"
        assert entry.payload == 12

    def test_delete(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        assert store.delete(digest)
        assert store.get(digest) is None
        assert not store.delete(digest)


class TestCorruptionDetection:
    def _corrupt(self, store, digest, filename="entry.json"):
        path = store._object_dir(digest) / filename
        data = bytearray(path.read_bytes())
        # flip one byte in the middle of the payload
        i = len(data) // 2
        data[i] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_flipped_entry_byte_detected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        self._corrupt(store, digest)
        with pytest.raises(StoreIntegrityError):
            store.get(digest)

    def test_flipped_trace_byte_detected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result, trace = _traced(spec)
        digest = store.put(spec, result, trace=trace)
        raw = bytearray(gzip.decompress(
            (store._object_dir(digest) / "trace.json.gz").read_bytes()
        ))
        raw[len(raw) // 2] ^= 0xFF
        (store._object_dir(digest) / "trace.json.gz").write_bytes(
            gzip.compress(bytes(raw), mtime=0)
        )
        with pytest.raises(StoreIntegrityError):
            store.load_trace(digest)

    def test_wrong_directory_detected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        # file the valid entry under a different digest
        other = "f" * 64
        src = store._object_dir(digest)
        dst = store._object_dir(other)
        dst.parent.mkdir(parents=True, exist_ok=True)
        src.rename(dst)
        with pytest.raises(StoreIntegrityError, match="filed under"):
            store.get(other)

    def test_verify_reports_corruption(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        assert store.verify() == []
        self._corrupt(store, digest)
        findings = store.verify()
        assert findings and "corrupt" in findings[0]

    def test_gc_removes_corruption(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        a, b = _spec(seed=0), _spec(seed=1)
        da = store.put(a, run_spec(a))
        store.put(b, run_spec(b))
        self._corrupt(store, da)
        report = store.gc()
        assert report.removed_corrupt == 1
        assert report.kept == 1
        assert store.verify() == []


class TestMaintenance:
    def test_stats(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result, trace = _traced(spec)
        store.put(spec, result, trace=trace)
        other = _spec(seed=1)
        store.put(other, run_spec(other))
        stats = store.stats()
        assert stats.entries == 2
        assert stats.traced == 1
        assert stats.total_bytes > 0

    def test_gc_evicts_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digests = []
        for seed in range(3):
            spec = _spec(seed=seed)
            digests.append(store.put(spec, run_spec(spec)))
        report = store.gc(max_entries=2)
        assert report.removed_evicted == 1
        assert store.get(digests[0]) is None  # oldest went
        assert store.get(digests[1]) is not None
        assert store.get(digests[2]) is not None

    def test_index_is_rebuildable(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        removed = _index_files(store)
        assert removed  # the journal at least
        for path in removed:
            path.unlink()
        # reads fall back to disk; gc adopts the orphan back into the index
        assert store.get(digest) is not None
        report = store.gc()
        assert report.adopted == 1
        assert [e["digest"] for e in store.entries()] == [digest]

    def test_torn_index_rebuilds_transparently(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        (store.root / "index.json").write_text("{ not json")
        # a torn index is only an accelerator: reads rebuild it in memory
        assert [e["digest"] for e in store.entries()] == [digest]
        assert store.verify() == []

    def test_future_index_schema_refused(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        store.put(spec, run_spec(spec))
        (store.root / "index.json").write_text(json.dumps({"schema": 999}))
        with pytest.raises(StoreError, match="schema"):
            store.entries()


class TestIndexJournal:
    """The index is a snapshot plus an append-only journal."""

    def _fill(self, store, n, start=0):
        return [
            store.put(sweep_cell_key(_module_runner, {"a": i, "b": 0}), i)
            for i in range(start, start + n)
        ]

    def test_puts_append_one_line_and_leave_the_snapshot(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        self._fill(store, 5)
        store.gc()
        snapshot = (store.root / "index.json").read_bytes()
        assert _journal_lines(store) == []
        digests = self._fill(store, 50, start=5)
        assert (store.root / "index.json").read_bytes() == snapshot
        lines = _journal_lines(store)
        assert len(lines) == 50
        for seq, (digest, line) in enumerate(zip(digests, lines), start=5):
            record = json.loads(line)
            assert line == (
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n"
            ).encode()
            assert record["digest"] == digest
            assert record["seq"] == seq and record["next_seq"] == seq + 1
        assert [e["seq"] for e in store.entries()] == list(range(55))
        assert store.stats().next_seq == 55
        assert store.verify() == []

    def test_delete_appends_a_tombstone(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digests = self._fill(store, 3)
        assert store.delete(digests[1])
        record = json.loads(_journal_lines(store)[-1])
        assert record == {"deleted": True, "digest": digests[1], "next_seq": 3}
        assert store.digests() == [digests[0], digests[2]]
        (added,) = self._fill(store, 1, start=3)
        assert store.get(added).seq == 3
        assert store.verify() == []

    def test_unterminated_tail_is_ignored_then_compacted(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digests = self._fill(store, 3)
        journal = store._journal_path(0)
        # a crash tore the third put's line after its object landed
        journal.write_bytes(journal.read_bytes()[:-20])
        assert store.digests() == digests[:2]
        (added,) = self._fill(store, 1, start=3)
        # the put compacted: a fresh snapshot, the torn entry adopted
        assert not journal.exists()
        assert [e["digest"] for e in store.entries()] == digests + [added]
        assert [e["seq"] for e in store.entries()] == [0, 1, 2, 3]
        assert len(_journal_lines(store)) == 1
        assert store.verify() == []

    def test_in_flight_line_is_invisible_to_readers(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digests = self._fill(store, 2)
        with open(store._journal_path(0), "ab") as f:
            f.write(b'{"app":null,"balancer":null,"dig')
        assert store.digests() == digests
        assert store.stats().next_seq == 2

    def test_malformed_line_rebuilds_from_objects(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digests = self._fill(store, 2)
        with open(store._journal_path(0), "ab") as f:
            f.write(b"not json\n")
        assert store.digests() == digests
        (added,) = self._fill(store, 1, start=2)
        assert [e["seq"] for e in store.entries()] == [0, 1, 2]
        assert store.digests() == digests + [added]
        assert store.verify() == []

    def test_schema_1_store_is_read_and_migrated(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digests = self._fill(store, 3)
        before = store.entries()
        # the layout the schema-1 writer left: one indented index.json
        rows = {e["digest"]: {k: v for k, v in e.items() if k != "digest"}
                for e in before}
        for path in _index_files(store):
            path.unlink()
        (store.root / "index.json").write_text(json.dumps(
            {"schema": 1, "next_seq": 3, "entries": rows},
            indent=2, sort_keys=True,
        ) + "\n")
        old = ResultStore(store.root)
        assert old.entries() == before
        (added,) = self._fill(old, 1, start=3)
        assert old.digests() == digests + [added]
        assert old.get(added).seq == 3
        assert json.loads((old.root / "index.json").read_text())["schema"] == 2
        assert old.verify() == []

    def test_newer_schema_refused(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        self._fill(store, 1)
        store.gc()
        path = store.root / "index.json"
        path.write_bytes(path.read_bytes().replace(b'"schema":2', b'"schema":3'))
        with pytest.raises(StoreError, match="schema 3"):
            store.entries()
        with pytest.raises(StoreError, match="schema 3"):
            self._fill(store, 1, start=1)

    def test_reader_during_gc_sees_old_or_new_index(self, tmp_path, monkeypatch):
        import repro.store.store as store_mod

        store = ResultStore(tmp_path / "s")
        self._fill(store, 4)
        old_view = store.entries()
        seen = []
        real_replace, real_unlink = os.replace, store_mod.Path.unlink

        def observe():
            seen.append(ResultStore(store.root).entries())

        def replace(src, dst):
            observe()
            real_replace(src, dst)
            observe()

        def unlink(path, missing_ok=False):
            observe()
            real_unlink(path, missing_ok=missing_ok)
            observe()

        monkeypatch.setattr(store_mod.os, "replace", replace)
        monkeypatch.setattr(store_mod.Path, "unlink", unlink)
        store.gc(max_entries=2)
        monkeypatch.undo()
        new_view = store.entries()
        assert [e["seq"] for e in new_view] == [2, 3]
        assert seen and all(v in (old_view, new_view) for v in seen)
        assert old_view in seen and new_view in seen
        assert store.verify() == []

    def test_put_reads_neither_index_file_whole(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "s")
        self._fill(store, 40)
        store.gc()
        self._fill(store, 40, start=40)

        def whole_read(*args, **kwargs):
            raise AssertionError("put read the whole index")

        monkeypatch.setattr(ResultStore, "_read_index", whole_read)
        monkeypatch.setattr(ResultStore, "_rebuild_index_unlocked", whole_read)
        (added,) = self._fill(store, 1, start=80)
        monkeypatch.undo()
        assert store.get(added).seq == 80
