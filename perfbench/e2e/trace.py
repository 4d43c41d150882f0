"""Spans at public calls, a stack sampler, and exact counts.

Everything here works from outside the program: public functions are
wrapped by assignment (and restored afterwards), and counts are read
from public state of each simulated ``System`` through ``run_app``'s
``instrument`` hook.  Nothing is written while a run is measured;
spans, samples and counts stay in memory until the run ends.

A :class:`Tracer` belongs to one process.  When a worker process forks
from the benchmark, the wrappers it inherits notice the new pid, start
an empty tracer for the child, and dump it to a file when the child
exits (``multiprocessing`` runs its finalizers at that point).
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional

#: the clock every span uses: CLOCK_MONOTONIC, comparable across processes
now = time.monotonic

#: ``repro`` packages the sampler charges samples to; anything else
#: inside ``repro`` becomes ``other``
LAYERS = (
    "sim", "sched", "balance", "core", "apps", "system", "mem", "metrics",
    "topology", "harness", "service", "store", "serve", "analysis",
)

#: time between stack samples, seconds
SAMPLE_INTERVAL_S = 0.001


def layer_of(module: str) -> Optional[str]:
    """The ``repro`` package a module belongs to, or None outside repro."""
    if module == "repro" or not module.startswith("repro."):
        return None
    pkg = module.split(".", 2)[1]
    return pkg if pkg in LAYERS else "other"


class Sampler:
    """Charge periodic stack samples of one thread to ``repro`` packages.

    A sample counts only while ``anchor`` (a code object) is on the
    sampled thread's stack, and is charged to the innermost frame that
    belongs to a ``repro`` package.  This replaces a profiler: it adds
    no cost to the calls it measures, so it does not shift the split.
    """

    def __init__(self, thread_id: int, anchor: Any):
        self.thread_id = thread_id
        self.anchor = anchor
        self.counts: Counter = Counter()
        self.total = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "Sampler":
        # a sampler thread runs only when the sampled one yields the
        # interpreter lock; hand it over every millisecond, not every 5
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(SAMPLE_INTERVAL_S)
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            sys.setswitchinterval(self._switch)

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            frame = sys._current_frames().get(self.thread_id)
            self.total += 1
            if frame is not None:
                layer = self.classify(frame)
                if layer is not None:
                    self.counts[layer] += 1

    def classify(self, frame: Any) -> Optional[str]:
        innermost = None
        f = frame
        while f is not None:
            if innermost is None:
                innermost = layer_of(f.f_globals.get("__name__", ""))
            if f.f_code is self.anchor:
                return innermost or "other"
            f = f.f_back
        return None


class Tracer:
    """In-memory spans and counts of one process."""

    def __init__(self, dump_dir: Optional[Path] = None, sample_anchor: Any = None):
        self.pid = os.getpid()
        self.dump_dir = dump_dir
        self.sample_anchor = sample_anchor
        self.spans: list[tuple] = []  #: (id, parent, name, start, end, key)
        self.counts: list[dict] = []  #: one dict per finished run_app
        self.sampler: Optional[Sampler] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- fork handling --------------------------------------------------
    def current(self) -> "Tracer":
        """Reset in a forked child; the child dumps its data at exit."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.spans, self.counts = [], []
            self._ids = itertools.count(1)
            self._local = threading.local()
            if self.sample_anchor is not None:
                self.sampler = Sampler(
                    threading.main_thread().ident, self.sample_anchor
                ).start()
            if self.dump_dir is not None:
                from multiprocessing import util

                util.Finalize(self, self._dump_child, exitpriority=100)
        return self

    def _dump_child(self) -> None:
        if self.sampler is not None:
            self.sampler.stop()
        payload = {
            "spans": self.spans,
            "counts": self.counts,
            "samples": dict(self.sampler.counts) if self.sampler else {},
        }
        out = self.dump_dir / f"worker-{os.getpid()}.json"
        out.write_text(json.dumps(payload))

    # -- spans ----------------------------------------------------------
    def span(self, name: str, fn: Callable, args: tuple, kwargs: dict, key: Any = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = now()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, key))

    def wrap(self, owner: Any, attr: str, name: str,
             key_fn: Optional[Callable[..., Any]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            key = key_fn(*args, **kwargs) if key_fn is not None else None
            return tracer.current().span(name, original, args, kwargs, key)

        wrapper.__wrapped__ = original
        self.patch(owner, attr, wrapper)

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` until :meth:`unpatch` puts the original back."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counts -----------------------------------------------------------
    def count_runs(self, parallel_module: Any) -> None:
        """Read exact counts off every System ``run_app`` builds.

        Wraps the ``run_app`` name the spec runner calls, adding the
        public ``instrument`` hook to capture the System; the hook only
        keeps a reference, so the run itself is unchanged.
        """
        original = parallel_module.run_app
        tracer = self

        def counted_run_app(*args, **kwargs):
            systems: list = []
            inner = kwargs.get("instrument")

            def capture(system):
                systems.append(system)
                if inner is not None:
                    inner(system)

            kwargs["instrument"] = capture
            start = now()
            result = original(*args, **kwargs)
            wall = now() - start
            tracer.current().counts.append(
                dict(system_counts(systems[0]), wall_s=wall,
                     digest=result_digest(result))
            )
            return result

        counted_run_app.__wrapped__ = original
        self.patch(parallel_module, "run_app", counted_run_app)


def system_counts(system: Any) -> dict:
    """Exact per-layer counts of one finished simulation."""
    fp = system.engine.fingerprint()
    out = {
        "sim.events": fp["dispatched"],
        "sim.scheduled": fp["scheduled"],
        "sim.now_us": fp["now"],
        "sched.context_switches": 0,
        "sched.dispatches": 0,
        "sched.busy_us": 0,
        "sched.spin_us": 0,
        "balance.attempts": 0,
        "balance.pulls": 0,
        "core.wakeups": 0,
        "core.pulls": 0,
    }
    for core in system.cores:
        st = core.stats
        out["sched.context_switches"] += st.context_switches
        out["sched.dispatches"] += st.dispatches
        out["sched.busy_us"] += st.busy_us
        out["sched.spin_us"] += st.spin_us
    kb = system.kernel_balancer
    out["balance.attempts"] += getattr(kb, "stats_attempts", 0)
    out["balance.pulls"] += getattr(kb, "stats_pulls", 0)
    for ub in system.user_balancers:
        out["core.wakeups"] += getattr(ub, "stats_wakeups", 0)
        out["core.pulls"] += getattr(ub, "stats_pulls", 0)
    for cause, n in system.migration_counts.items():
        out[f"system.migrations.{cause or 'unlabelled'}"] = n
    return out


#: per-run fields of a counts row that are not counts
_ROW_FIELDS = ("wall_s", "digest")


def result_digest(result: Any) -> str:
    """The run digest of one simulation result (its first 16 hex digits)."""
    from repro.analysis.sanitizer import run_digest

    return run_digest(result=result)[:16]


def sum_counts(rows: list[dict]) -> dict:
    """Add up the exact counts of many runs."""
    total: Counter = Counter()
    for row in rows:
        for k, v in row.items():
            if k not in _ROW_FIELDS:
                total[k] += v
    return dict(total)


def load_worker_dumps(dump_dir: Path) -> list[dict]:
    """What each forked worker wrote when it exited."""
    return [
        json.loads(p.read_text())
        for p in sorted(dump_dir.glob("worker-*.json"))
    ]
