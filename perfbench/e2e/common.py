"""Checkout paths, scratch space, memory, set-up probes, the count tripwire."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

#: the checkout the benchmark runs in (the directory holding perfbench/)
ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
#: scratch stores and worker dumps; removed when a run ends
TMP_ROOT = ROOT / ".perfbench-tmp"
#: exact counts per (workload, seed, program), kept between runs for the tripwire
STATE_DIR = ROOT / ".perfbench-state"
REFERENCE = BENCH_DIR / "reference.json"


class BenchFailure(Exception):
    """The benchmark cannot produce a trustworthy result."""


def require_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchFailure(
            f"no program to measure: {SRC / 'repro'} is missing "
            "(run from the root of a repro checkout)"
        )
    sys.path.insert(0, str(SRC))


def scratch_dir(tag: str) -> Path:
    """A fresh private directory under the checkout's scratch root."""
    d = TMP_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def remove_scratch(d: Path) -> None:
    shutil.rmtree(d, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def cleanup() -> None:
    """Remove every scratch directory this process left behind."""
    if TMP_ROOT.is_dir():
        for d in TMP_ROOT.glob(f"*-{os.getpid()}"):
            shutil.rmtree(d, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass


def _vm_hwm_kb(pid: int | str) -> int:
    """Peak resident set of one process (VmHWM), in KiB; 0 if gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def child_pids() -> list[int]:
    """Live direct children of this process (all threads)."""
    pids: set[int] = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.update(int(p) for p in (task / "children").read_text().split())
        except OSError:
            continue
    return sorted(pids)


def peak_rss_mb(children: Optional[list[int]] = None) -> float:
    """Peak RSS of this process plus the given (still live) children."""
    kb = _vm_hwm_kb("self") + sum(_vm_hwm_kb(p) for p in children or ())
    return kb / 1024.0


def setup_probe(kind: str, repeats: int) -> tuple[float, list[float], list[float]]:
    """Median set-up time over ``repeats`` fresh interpreters.

    Import cost can be measured only once per process, so each sample
    is a child interpreter timing its own import and start-up (see
    ``perfbench/setup_probe.py``); interpreter start itself is outside
    the timed region.  Each child also probes the host's speed around
    its timed region, and the median is of the times at the reference
    speed (see ``e2e/hostspeed.py``).  Returns it, the wall times and
    the speeds.
    """
    walls, speeds = [], []
    for i in range(repeats):
        d = scratch_dir(f"setup-{kind}-{i}")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), kind, str(d)],
                capture_output=True, text=True, timeout=120, cwd=ROOT,
            )
        finally:
            remove_scratch(d)
        if proc.returncode != 0:
            raise BenchFailure(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        wall, speed = proc.stdout.split()[-2:]
        walls.append(float(wall))
        speeds.append(float(speed))
    return statistics.median(w * s for w, s in zip(walls, speeds)), walls, speeds


def program_hash() -> str:
    """A hash of every source file of the program and the benchmark."""
    h = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file() and not any(
                part == "__pycache__" or part.endswith(".egg-info") for part in p.parts
            ):
                h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def check_counts(workload: str, seed: int, inputs: str, counts: dict,
                 program: str) -> list[str]:
    """The exact-count tripwire across runs of one (workload, seed).

    Counts seen before for the same seed, inputs and program must
    repeat exactly; new counts are remembered.  ``inputs`` describes
    what the seed generated and ``program`` is :func:`program_hash`, so
    a change to the workload or to the code starts afresh: a change may
    move a count on purpose, and is held to its own earlier runs only.
    Returns one message per count that moved.
    """
    STATE_DIR.mkdir(exist_ok=True)
    tag = hashlib.sha256(f"{program}\n{inputs}".encode()).hexdigest()[:12]
    path = STATE_DIR / f"{workload}-seed{seed}-{tag}.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    moved = [
        f"{k}: {known[k]} before, {v} now"
        for k, v in sorted(counts.items())
        if k in known and known[k] != v
    ]
    if not moved:
        known.update(counts)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, sort_keys=True, indent=0))
        os.replace(tmp, path)
    return moved


def compare_reps(reps: list[dict]) -> list[str]:
    """Counts that differ between repetitions inside one run."""
    moved = []
    for i, counts in enumerate(reps[1:], start=1):
        for k in sorted(set(counts) | set(reps[0])):
            if counts.get(k) != reps[0].get(k):
                moved.append(
                    f"{k}: {reps[0].get(k)} in repetition 0, "
                    f"{counts.get(k)} in repetition {i}"
                )
    return moved


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
