"""Content-addressed on-disk store for experiment results.

Layout (under the store root, ``.repro-store/`` by default)::

    index.json                  -- snapshot: digest -> summary, plus the
                                   generation of the journal it pairs with
    index-<gen>.log             -- append-only journal: one JSON line per
                                   put or delete since that snapshot
    index.lock                  -- transient inter-process mutation lock
    objects/<2-char shard>/<digest>/
        entry.json              -- spec key, result/value, integrity digest
        trace.json.gz           -- optional gzipped full trace

Every entry is keyed by the SHA-256 digest of the canonical form of
the configuration that produced it (:mod:`repro.store.keys`), so a
re-run of the same :class:`~repro.harness.parallel.RunSpec` or sweep
cell resolves to the same object without executing anything.

Integrity
---------
``entry.json`` carries an ``integrity`` field: the SHA-256 of the
entry's canonical JSON *without* that field.  Every read recomputes it
-- plus, for runs, the result digest (the PR 3
:func:`~repro.analysis.sanitizer.run_digest` over the parsed result)
and, for traces, the SHA-256 of the decompressed bytes -- and raises
:class:`StoreIntegrityError` on any mismatch.  A flipped bit on disk
is therefore *detected*, never silently served; callers like
:class:`repro.service.JobService` treat the error as a cache miss and
recompute.

Index: snapshot + journal
-------------------------
A put never rewrites the index.  It appends one compact JSON line --
the entry's index row plus its ``digest`` and the store's new
``next_seq`` -- to the journal with a single ``os.write`` on an
``O_APPEND`` descriptor, and it takes its ``seq`` from the journal's
last line (or from the snapshot's first line when the journal is
empty), so its cost does not grow with the store.  A delete appends a
tombstone line.  Readers parse the snapshot and replay the journal;
bytes after the journal's last newline are a put still in flight and
are ignored, and a malformed complete line makes the reader rebuild
the index from the objects tree.

Compaction (``gc``, and a writer that finds a torn journal tail or a
schema-1 index) writes a new snapshot naming a fresh, empty journal
of the next generation; one ``os.replace`` switches both, and only
then are older journals removed.  A reader therefore never pairs a
snapshot with another generation's journal.

Concurrency
-----------
Object writes are atomic (staged under ``tmp/``, then ``os.rename`` of
the whole entry directory); a losing racer of two identical writes
discards its staging copy -- content-addressing makes the winner's
bytes equivalent.  Index mutations serialize on ``index.lock``
(created ``O_CREAT | O_EXCL``); the index is only an accelerator and
can always be rebuilt from the objects tree (``gc`` does exactly
that), so a stale lock or torn index is recoverable, not fatal.

All directory walks are sorted -- the determinism linter's SIM006 rule
covers this package.
"""

from __future__ import annotations

import errno
import gzip
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

from repro.harness.parallel import RunSpec
from repro.metrics.export import (
    result_from_dict,
    result_to_dict,
    trace_from_dict,
    trace_to_dict,
)
from repro.metrics.results import AppRunResult, RepeatedResult
from repro.metrics.trace import TraceRecorder
from repro.store.keys import canonical_json, canonical_value, digest_of, spec_key

__all__ = [
    "STORE_SCHEMA",
    "DEFAULT_ROOT",
    "GcReport",
    "ResultStore",
    "StoreEntry",
    "StoreError",
    "StoreIntegrityError",
    "StoreLockError",
    "StoreStats",
]

#: index layout: 2 = snapshot + journal; 1 = a bare ``index.json``
#: (still read, and compacted to 2 by the first write)
STORE_SCHEMA = 2
_READABLE_SCHEMAS = (1, STORE_SCHEMA)
#: ``entry.json``'s own schema, unchanged by the index layout
_ENTRY_SCHEMA = 1
DEFAULT_ROOT = ".repro-store"

#: bounded lock acquisition: ~50 attempts x 20 ms ~= 1 s worst case
_LOCK_ATTEMPTS = 50
_LOCK_SLEEP_S = 0.02
#: a journal line is a few hundred bytes; a put reads this much of the tail
_TAIL_BYTES = 4096


class StoreError(Exception):
    """Base class for store failures."""


class StoreIntegrityError(StoreError):
    """A stored entry failed an integrity check; its bytes are not the
    bytes that were written.  Callers must treat the entry as absent
    (and may delete it), never use its contents."""


class StoreLockError(StoreError):
    """The inter-process index lock could not be acquired in time."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _result_digest(result: Union[AppRunResult, RepeatedResult]) -> str:
    """Digest of a result, PR 3 dialect.

    Single runs use :func:`repro.analysis.sanitizer.run_digest` (the
    digest the differential determinism checker compares); repeat
    aggregates hash their runs' digests in order.
    """
    from repro.analysis.sanitizer import run_digest

    if isinstance(result, RepeatedResult):
        h = hashlib.sha256()
        for r in result.runs:
            h.update(run_digest(result=r).encode())
            h.update(b"\n")
        return "repeat:" + h.hexdigest()
    return run_digest(result=result)


@dataclass(frozen=True)
class StoreEntry:
    """One integrity-verified entry read back from the store."""

    digest: str
    kind: str  #: "run" | "value"
    spec: dict  #: the canonical key object that produced the entry
    seq: int
    result: Optional[Union[AppRunResult, RepeatedResult]] = None
    value: Any = None
    result_digest: Optional[str] = None
    has_trace: bool = False

    @property
    def payload(self) -> Any:
        """The stored outcome, whichever kind it is."""
        return self.result if self.kind == "run" else self.value


@dataclass(frozen=True)
class StoreStats:
    """Aggregate numbers behind ``repro store stats``."""

    root: str
    entries: int
    traced: int
    total_bytes: int
    next_seq: int


@dataclass
class GcReport:
    """What one ``gc`` pass did."""

    kept: int = 0
    removed_corrupt: int = 0
    removed_evicted: int = 0
    bytes_freed: int = 0
    adopted: int = 0  #: valid objects the index did not know about
    findings: list[str] = field(default_factory=list)


def _empty_index() -> dict:
    return {"schema": STORE_SCHEMA, "gen": 0, "next_seq": 0, "entries": {}}


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ResultStore:
    """Content-addressed store of experiment results (see module docs)."""

    def __init__(self, root: Union[str, Path] = DEFAULT_ROOT):
        self.root = Path(root)

    # -- paths ----------------------------------------------------------
    @property
    def _index_path(self) -> Path:
        return self.root / "index.json"

    @property
    def _lock_path(self) -> Path:
        return self.root / "index.lock"

    def _object_dir(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / digest

    # -- locking --------------------------------------------------------
    def _with_lock(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` holding the inter-process mutation lock."""
        self.root.mkdir(parents=True, exist_ok=True)
        for attempt in range(_LOCK_ATTEMPTS):
            try:
                fd = os.open(
                    self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                os.close(fd)
                break
            except OSError as exc:
                if exc.errno != errno.EEXIST:
                    raise
                time.sleep(_LOCK_SLEEP_S)
        else:
            raise StoreLockError(
                f"could not acquire {self._lock_path} after "
                f"{_LOCK_ATTEMPTS} attempts; if no other process is using "
                "the store, remove the stale lock file"
            )
        try:
            return fn()
        finally:
            try:
                os.unlink(self._lock_path)
            except FileNotFoundError:  # pragma: no cover - external removal
                pass

    def clear_lock(self) -> None:
        """Remove an ``index.lock`` left by a writer that died holding it.

        Safe only when the caller knows no live process can be writing
        to this store, e.g. the serving daemon after it killed the
        shard's one writer.
        """
        self._lock_path.unlink(missing_ok=True)

    # -- index ----------------------------------------------------------
    def _journal_path(self, gen: int) -> Path:
        return self.root / f"index-{gen}.log"

    def _journals(self) -> list[tuple[int, Path]]:
        """Every ``index-<gen>.log`` on disk with its generation."""
        found = []
        for path in sorted(self.root.glob("index-*.log")):
            gen = path.stem[len("index-"):]
            if gen.isdigit():
                found.append((int(gen), path))
        return found

    def _read_snapshot(self) -> Optional[bytes]:
        try:
            return self._index_path.read_bytes()
        except FileNotFoundError:
            return None

    def _parse_snapshot(self, raw: Optional[bytes]) -> Optional[dict]:
        """The snapshot as an index dict; ``None`` when it is torn."""
        if raw is None:
            return _empty_index()
        try:
            index = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(index, dict):
            return None
        if index.get("schema") not in _READABLE_SCHEMAS:
            raise StoreError(
                f"{self._index_path}: unsupported store schema "
                f"{index.get('schema')!r} (this build reads "
                f"{', '.join(map(str, _READABLE_SCHEMAS))})"
            )
        index.setdefault("gen", 0)
        return index

    @staticmethod
    def _replay(index: dict, journal: bytes) -> bool:
        """Apply the journal's complete lines to ``index`` in place.

        The bytes after the last newline are a put still in flight in
        another process (or one a crash tore) and are ignored.  Returns
        False on a malformed complete line.
        """
        entries = index["entries"]
        try:
            # one parse for the lot; any malformed line fails it
            records = json.loads(b"[" + b",".join(journal.split(b"\n")[:-1]) + b"]")
        except ValueError:
            return False
        for record in records:
            try:
                digest = record.pop("digest")
                next_seq = record.pop("next_seq")
            except (KeyError, TypeError, AttributeError):
                return False
            if not isinstance(digest, str) or not isinstance(next_seq, int):
                return False
            if record.pop("deleted", False):
                entries.pop(digest, None)
            else:
                entries[digest] = record
            index["next_seq"] = next_seq
        return True

    def _read_index(self) -> dict:
        """The index now: the snapshot with its journal replayed."""
        for _ in range(_LOCK_ATTEMPTS):
            raw = self._read_snapshot()
            index = self._parse_snapshot(raw)
            if index is None:
                # the index is an accelerator; a torn one is rebuilt
                return self._rebuild_index_unlocked()
            if index["schema"] == 1:
                return index  # schema 1 has no journal
            try:
                journal = self._journal_path(index["gen"]).read_bytes()
            except FileNotFoundError:
                if self._read_snapshot() != raw:
                    continue  # a compaction switched journals under us
                journal = b""
            if self._replay(index, journal):
                return index
            return self._rebuild_index_unlocked()
        raise StoreError(
            f"{self._index_path}: the index changed on every one of "
            f"{_LOCK_ATTEMPTS} reads"
        )

    def _journal_tail(self) -> Optional[tuple[int, int]]:
        """``(gen, next_seq)`` for the next journal line, under the lock.

        Reads only the snapshot's first line and the journal's last
        one.  ``None`` when the index must be compacted first: the
        snapshot is schema 1 or torn, or the journal's tail is torn or
        malformed.
        """
        try:
            with open(self._index_path, "rb") as f:
                first = f.readline()
        except FileNotFoundError:
            gen, next_seq = 0, 0
        else:
            if not first.endswith(b",\n"):
                return None
            try:
                head = json.loads(first[:-2] + b"}")
            except ValueError:
                return None
            if not isinstance(head, dict) or head.get("schema") != STORE_SCHEMA:
                return None
            gen, next_seq = head.get("gen"), head.get("next_seq")
            if not isinstance(gen, int) or not isinstance(next_seq, int):
                return None
        try:
            with open(self._journal_path(gen), "rb") as f:
                size = f.seek(0, os.SEEK_END)
                if size == 0:
                    return gen, next_seq
                start = f.seek(max(0, size - _TAIL_BYTES))
                tail = f.read()
        except FileNotFoundError:
            return gen, next_seq
        if not tail.endswith(b"\n"):
            return None  # torn: no put is in flight while we hold the lock
        cut = tail.rfind(b"\n", 0, len(tail) - 1)
        if cut < 0 and start > 0:
            return None  # a last line longer than the tail read
        try:
            next_seq = json.loads(tail[cut + 1:])["next_seq"]
        except (ValueError, KeyError, TypeError):
            return None
        return (gen, next_seq) if isinstance(next_seq, int) else None

    def _writable_tail(self) -> tuple[int, int]:
        """``(gen, next_seq)`` to append at, compacting first if needed.

        Recovery adopts valid objects the index does not name, so the
        entry of a put whose journal line a crash tore keeps its
        ``seq`` and ``seq`` stays dense.
        """
        tail = self._journal_tail()
        if tail is not None:
            return tail
        index = self._read_index()
        for digest in self._walk_object_digests():
            if digest in index["entries"]:
                continue
            try:
                doc = self._load_entry_doc(digest)
            except StoreError:
                continue  # corrupt: gc removes it
            index["entries"][digest] = self._index_row(doc)
            index["next_seq"] = max(index["next_seq"], doc["seq"] + 1)
        return self._compact(index), index["next_seq"]

    def _compact(self, index: dict) -> int:
        """Write ``index`` as the snapshot of a fresh, empty journal.

        The new journal exists before the snapshot that names it, one
        ``os.replace`` switches both, and only then are older journals
        removed.  Returns the new generation.  Caller holds the lock.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        old = self._journals()
        gen = 1 + max([index["gen"]] + [g for g, _ in old])
        # truncates a leftover of a compaction that died before its switch
        self._journal_path(gen).write_bytes(b"")
        head = _json_line(
            {"gen": gen, "next_seq": index["next_seq"], "schema": STORE_SCHEMA}
        )
        tmp = self._index_path.with_suffix(f".tmp.{os.getpid()}")
        # the first line is the head alone, so a writer reads no more
        tmp.write_text(
            f'{head[:-1]},\n"entries":{_json_line(index["entries"])}}}\n'
        )
        os.replace(tmp, self._index_path)
        for _, path in old:
            path.unlink(missing_ok=True)
        return gen

    def _append(self, gen: int, record: dict) -> None:
        """Append one journal line with a single ``O_APPEND`` write."""
        path = self._journal_path(gen)
        line = (_json_line(record) + "\n").encode()
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            written = os.write(fd, line)
        finally:
            os.close(fd)
        if written != len(line):
            raise StoreError(
                f"{path}: short journal write ({written} of {len(line)} "
                "bytes); the next write compacts the index"
            )

    def _walk_object_digests(self) -> Iterator[str]:
        """Every object digest on disk, in sorted (deterministic) order."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for shard in sorted(objects.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.is_dir():
                    yield entry.name

    def _rebuild_index_unlocked(self) -> dict:
        """Reconstruct the manifest from the objects tree (skip corrupt)."""
        index = _empty_index()
        rows = []
        for digest in self._walk_object_digests():
            try:
                entry_doc = self._load_entry_doc(digest)
            except StoreIntegrityError:
                continue
            rows.append((entry_doc["seq"], digest, entry_doc))
        rows.sort()
        for seq, digest, doc in rows:
            index["entries"][digest] = self._index_row(doc)
            index["next_seq"] = max(index["next_seq"], seq + 1)
        return index

    @staticmethod
    def _index_row(doc: dict) -> dict:
        spec = doc["spec"]
        app = spec.get("app")
        return {
            "seq": doc["seq"],
            "kind": doc["kind"],
            "has_trace": doc.get("trace_sha256") is not None,
            "balancer": spec.get("balancer"),
            "seed": spec.get("seed"),
            "app": app.get("fields", {}).get("bench")
            if isinstance(app, dict) else None,
        }

    # -- entry serialization -------------------------------------------
    @staticmethod
    def _integrity_of(doc: dict) -> str:
        body = {k: v for k, v in doc.items() if k != "integrity"}
        return _sha256(canonical_json(body).encode())

    def _load_entry_doc(self, digest: str) -> dict:
        """Read and integrity-check ``entry.json``; raise on any damage."""
        path = self._object_dir(digest) / "entry.json"
        try:
            raw = path.read_text()
        except FileNotFoundError:
            raise StoreError(f"no store entry {digest}") from None
        except UnicodeDecodeError as exc:
            raise StoreIntegrityError(
                f"{path}: entry is not valid UTF-8 ({exc}); the entry is "
                "corrupt and must be recomputed"
            ) from None
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise StoreIntegrityError(
                f"{path}: entry is not parseable JSON ({exc}); the entry "
                "is corrupt and must be recomputed"
            ) from None
        if not isinstance(doc, dict) or "integrity" not in doc:
            raise StoreIntegrityError(f"{path}: entry has no integrity digest")
        want = doc["integrity"]
        got = self._integrity_of(doc)
        if got != want:
            raise StoreIntegrityError(
                f"{path}: integrity digest mismatch (stored {want[:12]}..., "
                f"recomputed {got[:12]}...); the entry bytes changed after "
                "they were written"
            )
        if doc.get("spec_digest") != digest:
            raise StoreIntegrityError(
                f"{path}: entry claims spec digest "
                f"{str(doc.get('spec_digest'))[:12]}... but is filed under "
                f"{digest[:12]}..."
            )
        return doc

    # -- write ----------------------------------------------------------
    def put(
        self,
        spec: Union[RunSpec, dict],
        outcome: Any,
        trace: Optional[TraceRecorder] = None,
    ) -> str:
        """File ``outcome`` (and optionally its trace) under the spec's
        content digest; returns the digest.

        ``spec`` is a :class:`RunSpec` or an already-canonical key
        object (e.g. :func:`~repro.store.keys.sweep_cell_key`).
        ``outcome`` is an :class:`AppRunResult` / :class:`RepeatedResult`
        (stored with its PR 3 result digest) or any canonicalizable
        plain value.  Writing the same digest twice is a no-op (the
        bytes are equivalent by construction).
        """
        key = spec_key(spec) if isinstance(spec, RunSpec) else canonical_value(spec)
        digest = digest_of(key)

        doc: dict[str, Any] = {
            "schema": _ENTRY_SCHEMA,
            "spec": key,
            "spec_digest": digest,
        }
        if isinstance(outcome, (AppRunResult, RepeatedResult)):
            doc["kind"] = "run"
            doc["result"] = result_to_dict(outcome)
            doc["result_digest"] = _result_digest(outcome)
            doc["value"] = None
        else:
            doc["kind"] = "value"
            doc["result"] = None
            doc["result_digest"] = None
            doc["value"] = canonical_value(outcome)

        trace_blob: Optional[bytes] = None
        if trace is not None:
            raw = canonical_json(trace_to_dict(trace)).encode()
            doc["trace_sha256"] = _sha256(raw)
            trace_blob = gzip.compress(raw, mtime=0)
        else:
            doc["trace_sha256"] = None

        def commit() -> str:
            final = self._object_dir(digest)
            if final.exists():
                return digest
            gen, seq = self._writable_tail()
            doc["seq"] = seq
            doc["integrity"] = self._integrity_of(doc)

            stage = self.root / "tmp" / f"{digest}.{os.getpid()}"
            stage.mkdir(parents=True, exist_ok=True)
            (stage / "entry.json").write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n"
            )
            if trace_blob is not None:
                (stage / "trace.json.gz").write_bytes(trace_blob)

            final.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(stage, final)
            except OSError:
                # lost a cross-process race; the winner's bytes are
                # equivalent (same digest, same canonical serialization)
                for p in sorted(stage.iterdir()):
                    p.unlink()
                stage.rmdir()
                return digest
            self._append(
                gen, {**self._index_row(doc), "digest": digest, "next_seq": seq + 1}
            )
            return digest

        return self._with_lock(commit)

    # -- read -----------------------------------------------------------
    def contains(self, digest_or_spec: Union[str, RunSpec]) -> bool:
        digest = self._resolve(digest_or_spec)
        return (self._object_dir(digest) / "entry.json").is_file()

    def _resolve(self, digest_or_spec: Union[str, RunSpec]) -> str:
        if isinstance(digest_or_spec, RunSpec):
            return digest_of(spec_key(digest_or_spec))
        return digest_or_spec

    def get(self, digest_or_spec: Union[str, RunSpec]) -> Optional[StoreEntry]:
        """Load and verify one entry; ``None`` when absent.

        Raises :class:`StoreIntegrityError` when the entry exists but
        its bytes fail verification -- corrupt data is never returned.
        """
        digest = self._resolve(digest_or_spec)
        if not (self._object_dir(digest) / "entry.json").is_file():
            return None
        doc = self._load_entry_doc(digest)
        result: Optional[Union[AppRunResult, RepeatedResult]] = None
        if doc["kind"] == "run":
            result = result_from_dict(doc["result"])
            recomputed = _result_digest(result)
            if recomputed != doc["result_digest"]:
                raise StoreIntegrityError(
                    f"{digest[:12]}...: stored result digest "
                    f"{str(doc['result_digest'])[:12]}... does not match the "
                    f"parsed result ({recomputed[:12]}...)"
                )
        return StoreEntry(
            digest=digest,
            kind=doc["kind"],
            spec=doc["spec"],
            seq=doc["seq"],
            result=result,
            value=doc.get("value"),
            result_digest=doc.get("result_digest"),
            has_trace=doc.get("trace_sha256") is not None,
        )

    def load_trace(
        self, digest_or_spec: Union[str, RunSpec]
    ) -> Optional[TraceRecorder]:
        """Load an entry's stored trace; ``None`` when it has none."""
        digest = self._resolve(digest_or_spec)
        doc = self._load_entry_doc(digest)
        want = doc.get("trace_sha256")
        if want is None:
            return None
        path = self._object_dir(digest) / "trace.json.gz"
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            raise StoreIntegrityError(
                f"{digest[:12]}...: entry records a trace but "
                f"{path.name} is missing"
            ) from None
        try:
            raw = gzip.decompress(blob)
        except (OSError, EOFError) as exc:
            raise StoreIntegrityError(
                f"{digest[:12]}...: stored trace is not valid gzip ({exc})"
            ) from None
        if _sha256(raw) != want:
            raise StoreIntegrityError(
                f"{digest[:12]}...: stored trace bytes do not match the "
                "digest recorded at write time"
            )
        return trace_from_dict(json.loads(raw))

    def delete(self, digest_or_spec: Union[str, RunSpec]) -> bool:
        """Remove one entry (object, then a tombstone journal line);
        True if it existed."""
        digest = self._resolve(digest_or_spec)

        def commit() -> bool:
            existed = self._remove_object(digest)
            if digest in self._read_index()["entries"]:
                gen, next_seq = self._writable_tail()
                self._append(
                    gen, {"deleted": True, "digest": digest, "next_seq": next_seq}
                )
                existed = True
            return existed

        return self._with_lock(commit)

    def _remove_object(self, digest: str) -> bool:
        obj = self._object_dir(digest)
        if not obj.exists():
            return False
        for p in sorted(obj.iterdir()):
            p.unlink()
        obj.rmdir()
        try:
            obj.parent.rmdir()  # drop the shard dir when it empties
        except OSError:
            pass
        return True

    # -- listing --------------------------------------------------------
    def digests(self) -> list[str]:
        """All entry digests, oldest first (read from the index)."""
        rows = self._read_index()["entries"]
        return sorted(rows, key=lambda d: rows[d]["seq"])

    def entries(self) -> list[dict]:
        """Index rows (digest + summary), oldest first."""
        rows = self._read_index()["entries"]
        return [
            {"digest": d, **rows[d]}
            for d in sorted(rows, key=lambda d: rows[d]["seq"])
        ]

    # -- maintenance ----------------------------------------------------
    def stats(self) -> StoreStats:
        index = self._read_index()
        total = 0
        traced = 0
        objects = self.root / "objects"
        if objects.is_dir():
            for shard in sorted(objects.iterdir()):
                for obj in sorted(shard.iterdir()) if shard.is_dir() else []:
                    for f in sorted(obj.iterdir()) if obj.is_dir() else []:
                        total += f.stat().st_size
        for row in index["entries"].values():
            if row.get("has_trace"):
                traced += 1
        return StoreStats(
            root=str(self.root),
            entries=len(index["entries"]),
            traced=traced,
            total_bytes=total,
            next_seq=index["next_seq"],
        )

    def verify(self) -> list[str]:
        """Full integrity pass; returns human-readable findings.

        Checks every object's entry digest, result digest and trace
        bytes, plus index <-> objects consistency, without modifying
        anything.  An empty list means the store is clean.
        """
        findings: list[str] = []
        on_disk: set[str] = set()
        for digest in self._walk_object_digests():
            on_disk.add(digest)
            try:
                entry = self.get(digest)
                if entry is not None and entry.has_trace:
                    self.load_trace(digest)
            except StoreError as exc:
                findings.append(f"corrupt {digest[:12]}...: {exc}")
        index = self._read_index()
        for digest in sorted(set(index["entries"]) - on_disk):
            findings.append(f"indexed but missing on disk: {digest[:12]}...")
        for digest in sorted(on_disk - set(index["entries"])):
            findings.append(f"on disk but not indexed: {digest[:12]}...")
        return findings

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> GcReport:
        """Collect garbage: drop corrupt objects, rebuild the index,
        then evict oldest-first down to the caps.

        The rebuilt index is written as a new snapshot with a fresh
        journal (see the module docs) before evicted objects are
        removed, so no reader sees an evicted row in the new index.

        Eviction order is insertion order (``seq``), which is
        deterministic and wall-clock free; see docs/store.md for the
        policy rationale.  Returns a :class:`GcReport`.
        """

        def commit() -> GcReport:
            report = GcReport()
            index_before = self._read_index()
            known = set(index_before["entries"])
            rows: list[tuple[int, str, int]] = []  # (seq, digest, bytes)
            index = _empty_index()
            for digest in list(self._walk_object_digests()):
                obj = self._object_dir(digest)
                size = sum(
                    f.stat().st_size for f in sorted(obj.iterdir())
                )
                try:
                    doc = self._load_entry_doc(digest)
                    if doc.get("trace_sha256") is not None:
                        # surfaces missing/corrupt trace files too
                        self.load_trace(digest)
                except StoreError as exc:
                    self._remove_object(digest)
                    report.removed_corrupt += 1
                    report.bytes_freed += size
                    report.findings.append(f"removed corrupt {digest[:12]}...: {exc}")
                    continue
                if digest not in known:
                    report.adopted += 1
                    report.findings.append(f"adopted unindexed {digest[:12]}...")
                rows.append((doc["seq"], digest, size))
                index["entries"][digest] = self._index_row(doc)
            rows.sort()

            total = sum(size for _, _, size in rows)
            evict = 0
            if max_entries is not None:
                evict = max(evict, len(rows) - max_entries)
            if max_bytes is not None:
                over = total - max_bytes
                acc = 0
                n = 0
                for _, _, size in rows:
                    if acc >= over:
                        break
                    acc += size
                    n += 1
                evict = max(evict, n if over > 0 else 0)
            for _, digest, _ in rows[:evict]:
                del index["entries"][digest]
            index["gen"] = index_before["gen"]
            index["next_seq"] = max(
                [index_before["next_seq"]] + [seq + 1 for seq, _, _ in rows]
            )
            self._compact(index)
            for seq, digest, size in rows[:evict]:
                self._remove_object(digest)
                report.removed_evicted += 1
                report.bytes_freed += size
                report.findings.append(f"evicted seq={seq} {digest[:12]}...")
            report.kept = len(rows) - evict
            return report

        return self._with_lock(commit)
