"""The Linux 2.6.28 load balancer ("LOAD" in the paper's figures).

Faithful to the description in Section 2 of the paper:

* load = run-queue length (``nr_running``), balanced over the
  scheduling-domain hierarchy (SMT -> cache -> socket -> NUMA);
* each core periodically pulls from the busiest queue of the busiest
  group in each of its domains, at a frequency that decreases up the
  hierarchy (idle cores: every 1-2 timer ticks on UMA, 64 ms for NUMA;
  busy cores: 64-128 ms SMT, 64-256 ms shared package, 256-1024 ms
  NUMA);
* an *imbalance percentage* (typically 125%, 110% for SMT) gates
  migration, and integer arithmetic means "if the balance cannot be
  improved (e.g. one group has 3 tasks and the other 2 tasks) Linux
  will not migrate any tasks" -- the very behaviour that motivates
  speed balancing;
* the balancer never migrates the running task and resists migrating
  "cache hot" tasks (ran within ~5 ms), giving in after repeated
  failed attempts;
* a core that becomes idle immediately tries to pull (new-idle
  balancing) -- this is what lets LOAD cope with applications whose
  waiting threads *sleep* (Section 6.2), and what yield-mode waiters
  defeat by keeping every queue visibly non-empty.

Simplification vs the kernel: the escalation path that wakes the
kernel migration thread to push work to an idle core is subsumed by
new-idle pulls (an idle core pulls immediately, including cache-hot
tasks after failures), which reaches the same steady states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.balance.base import KernelBalancer
from repro.sched.task import Task, TaskState
from repro.topology.machine import DomainLevel, SchedDomain

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.core import CoreSim
    from repro.system import System

__all__ = ["LinuxParams", "LinuxLoadBalancer"]


def _default_busy_intervals() -> dict[DomainLevel, int]:
    # midpoints of the ranges the paper quotes for busy cores
    return {
        DomainLevel.SMT: 64_000,
        DomainLevel.CACHE: 128_000,
        DomainLevel.SOCKET: 192_000,
        DomainLevel.MACHINE: 256_000,
        DomainLevel.NUMA: 512_000,
    }


def _default_idle_intervals() -> dict[DomainLevel, int]:
    # "every 1 to 2 timer ticks (typically 10ms on a server) on UMA and
    # every 64ms on NUMA"
    return {
        DomainLevel.SMT: 10_000,
        DomainLevel.CACHE: 10_000,
        DomainLevel.SOCKET: 10_000,
        DomainLevel.MACHINE: 10_000,
        DomainLevel.NUMA: 64_000,
    }


def _default_imbalance_pct() -> dict[DomainLevel, int]:
    # "typically 125% for most scheduling domains, with SMT usually
    # being lower at 110%"
    return {
        DomainLevel.SMT: 110,
        DomainLevel.CACHE: 125,
        DomainLevel.SOCKET: 125,
        DomainLevel.MACHINE: 125,
        DomainLevel.NUMA: 125,
    }


@dataclass
class LinuxParams:
    """Tunables of the Linux balancer model (the /proc knobs)."""

    busy_interval_us: dict[DomainLevel, int] = field(default_factory=_default_busy_intervals)
    idle_interval_us: dict[DomainLevel, int] = field(default_factory=_default_idle_intervals)
    imbalance_pct: dict[DomainLevel, int] = field(default_factory=_default_imbalance_pct)
    #: cache-hot window (paper: "executed recently (~5ms) on the core")
    cache_hot_us: int = 5_000
    #: failed balance attempts before cache-hot tasks become eligible
    #: (paper: "typically between one and two")
    hot_resist_attempts: int = 2
    #: base tick driving the periodic balancer check
    tick_us: int = 10_000


class LinuxLoadBalancer(KernelBalancer):
    """Queue-length balancing over the scheduling-domain hierarchy."""

    name = "linux"

    def __init__(self, params: Optional[LinuxParams] = None):
        super().__init__()
        self.params = params or LinuxParams()
        self._last_balance: dict[tuple[int, int], int] = {}  # (cid, level) -> time
        self._failed: dict[tuple[int, int], int] = {}  # consecutive failures
        #: cid -> [(domain, (cid, level), busy_iv, idle_iv)], built once
        #: at attach so ticks skip per-domain enum/dict hops
        self._tick_plan: dict[int, list] = {}
        #: cid -> (callback, label) reused across tick reschedules
        self._tick_cb: dict[int, tuple] = {}
        #: engine time snapshot read by _pull_sort_key during the sort
        self._sort_now = 0
        self.stats_pulls = 0
        self.stats_attempts = 0

    # ------------------------------------------------------------------
    def attach(self, system: "System") -> None:
        super().attach(system)
        for core in system.cores:
            core.idle_callbacks.append(self._newidle_balance)
            # Per-core tick plan, precomputed once: domain list with the
            # (cid, level) bookkeeping key and both interval choices
            # resolved, plus a reusable callback/label pair.  The tick
            # fires on every core every 10 ms of simulated time, so the
            # per-tick dict/enum lookups and lambda allocations add up.
            cid = core.cid
            self._tick_plan[cid] = [
                (
                    domain,
                    (cid, int(domain.level)),
                    self.params.busy_interval_us[domain.level],
                    self.params.idle_interval_us[domain.level],
                )
                for domain in system.machine.domains_by_core[cid]
            ]
            label = f"linux.tick.{cid}"
            callback = (lambda c=core: self._tick(c))
            self._tick_cb[cid] = (callback, label)
            # stagger periodic ticks so cores don't balance in lockstep
            offset = system.rng.jitter_us("linux.tick", self.params.tick_us)
            system.engine.schedule(self.params.tick_us + offset, callback, label)

    # ------------------------------------------------------------------
    # periodic balancing
    # ------------------------------------------------------------------
    def _tick(self, core: "CoreSim") -> None:
        assert self.system is not None
        now = self.system.engine.now
        idle = core.current is None and core.rq.count == 0
        last_balance = self._last_balance
        for domain, key, busy_iv, idle_iv in self._tick_plan[core.cid]:
            if now - last_balance.get(key, 0) >= (idle_iv if idle else busy_iv):
                last_balance[key] = now
                self._balance_domain(core, domain)
        callback, label = self._tick_cb[core.cid]
        self.system.engine.schedule(self.params.tick_us, callback, label)

    def _balance_domain(self, core: "CoreSim", domain: SchedDomain) -> None:
        """One balancing pass at one domain level, pulling toward core."""
        assert self.system is not None
        key = (core.cid, int(domain.level))
        self.stats_attempts += 1
        cores = self.system.cores
        # One pass over the groups, inlining nr_running: this sweep runs
        # on every balancer tick at every domain level, so the dict of
        # loads and the keyed max() (a lambda call per group) added up.
        # `total > busiest_load` keeps the first maximal group, exactly
        # as max() over the group iteration order did.
        local_group = domain.group_of(core.cid)
        local_load = 0
        busiest_group = None
        busiest_load = -1
        for g in domain.groups:
            total = 0
            for c in g:
                cs = cores[c]
                total += cs.rq.count + (1 if cs.current is not None else 0)
            if g is local_group:
                local_load = total
            elif total > busiest_load:
                busiest_group = g
                busiest_load = total
        if busiest_group is None:
            return
        pct = self.params.imbalance_pct[domain.level]
        if busiest_load * 100 <= local_load * pct:
            self._failed.pop(key, None)
            return
        # integer imbalance: how many tasks to move to even the groups
        n_to_move = (busiest_load - local_load) // 2
        if n_to_move < 1:
            # e.g. 3 vs 2: the balance "cannot be improved"; do nothing
            return
        busiest_core = None
        busiest_nr = -1
        for c in busiest_group:
            cs = cores[c]
            nr = cs.rq.count + (1 if cs.current is not None else 0)
            if nr > busiest_nr:
                busiest_core = cs
                busiest_nr = nr
        moved = self._pull_tasks(core, busiest_core, n_to_move, domain.level)
        if moved:
            self._failed.pop(key, None)
        else:
            self._failed[key] = self._failed.get(key, 0) + 1

    def _pull_sort_key(self, task: Task) -> tuple[bool, int]:
        # bound-method sort key: needs the engine-time snapshot in
        # self._sort_now, so it cannot be a module-level function; using
        # a method instead of a lambda keeps the pull path closure-free
        return (task.cache_hot(self._sort_now, self.params.cache_hot_us), task.tid)

    def _pull_tasks(
        self,
        dst: "CoreSim",
        src: "CoreSim",
        n: int,
        level: DomainLevel,
        allow_hot_override: bool = False,
    ) -> int:
        """Pull up to ``n`` movable tasks src -> dst.  Returns count."""
        assert self.system is not None
        now = self.system.engine.now
        allow_hot = (
            allow_hot_override
            or self._failed.get((dst.cid, int(level)), 0) >= self.params.hot_resist_attempts
        )
        moved = 0
        # never the running task; prefer cache-cold candidates
        candidates = [
            t
            for t in src.rq.tasks()
            if t.state == TaskState.RUNNABLE and t.can_run_on(dst.cid)
        ]
        self._sort_now = now
        candidates.sort(key=self._pull_sort_key)
        for task in candidates:
            if moved >= n:
                break
            if task.cache_hot(now, self.params.cache_hot_us) and not allow_hot:
                continue
            if self.system.migrate(task, dst.cid, reason=f"linux.{level.name.lower()}"):
                moved += 1
        self.stats_pulls += moved
        return moved

    # ------------------------------------------------------------------
    # new-idle balancing
    # ------------------------------------------------------------------
    def _newidle_balance(self, core: "CoreSim") -> None:
        """A core just ran out of work: pull one task immediately.

        Walks the domain hierarchy bottom-up and takes the first
        available task from the busiest queue with more than one
        runnable task.  Cache-hot resistance applies but yields after
        the configured failed attempts -- an idle core beats locality.
        """
        assert self.system is not None
        cores = self.system.cores
        my_cid = core.cid
        for domain in self.system.machine.domains_by_core[my_cid]:
            # explicit first-max scan (see _balance_domain)
            busiest = None
            busiest_nr = -1
            for c in domain.core_ids:
                if c == my_cid:
                    continue
                cs = cores[c]
                nr = cs.rq.count + (1 if cs.current is not None else 0)
                if nr > busiest_nr:
                    busiest = cs
                    busiest_nr = nr
            if busiest is None or busiest_nr < 2:
                continue
            if self._pull_tasks(core, busiest, 1, domain.level):
                return
            # second chance: an idle core may take even a hot task
            if self._pull_tasks(core, busiest, 1, domain.level, allow_hot_override=True):
                return
