"""The FLOW rule catalogue.

Each FLOW rule is the *interprocedural* closure of a blind spot in the
per-file SIM linter: the same determinism property, enforced across
function, method and module boundaries by the taint fixpoint instead
of per-line pattern matching.

======== =============================================================
FLOW001  Float contamination reaching engine timestamps through
         aliases, call chains and returns (interprocedural SIM004):
         a value derived from ``engine.now`` is true-divided or
         ``float()``-ed in an engine-time module -- possibly inside a
         helper that received it as a parameter -- or a float-valued
         expression produced by a callee flows into an
         ``Engine.schedule``/``schedule_at`` time argument.
FLOW002  Global or unseeded randomness flowing into a scheduling
         decision via intermediaries (interprocedural SIM002): a
         function anywhere draws from the global :mod:`random` module
         (or ``numpy.random``, or an unseeded ``random.Random()``) and
         the value reaches code in ``balance/``, ``sched/`` or
         ``core/`` through calls or returns.
FLOW003  An unordered ``set``/``frozenset``/``.keys()`` value escapes
         the function that built it and is iterated in a
         scheduling-decision module (interprocedural SIM001) -- either
         a decision-module caller iterates a set-returning callee's
         result, or a set is passed into a decision-module function
         that iterates its parameter.
FLOW004  Module-level mutable state written from a hot scheduling or
         harness-worker code path: process-global containers and
         iterators mutated by functions reachable from ``sched/``,
         ``core/``, ``balance/``, ``sim/`` or the worker entry modules
         break fork-safety for ``repeat_run``/``sweep workers=N`` and
         any future serving daemon.
FLOW005  A lambda, closure or local function flows into
         :mod:`repro.store` spec-key construction (``spec_digest``,
         ``canonical_value``, ``function_ref``, ...), which raises
         ``UnstorableSpecError`` at runtime -- this rule surfaces it
         statically, including through intermediaries.
======== =============================================================
"""

from __future__ import annotations

from repro.analysis.driver import Rule

__all__ = ["FLOW_RULES"]

FLOW_RULES: dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "FLOW001",
            "float arithmetic reaching an engine timestamp across call boundaries",
        ),
        Rule(
            "FLOW002",
            "global/unseeded randomness flowing into a scheduling decision",
        ),
        Rule(
            "FLOW003",
            "unordered set escaping into iteration in a decision module",
        ),
        Rule(
            "FLOW004",
            "module-level mutable state written on a hot or worker path",
        ),
        Rule(
            "FLOW005",
            "lambda/closure flowing into store spec-key construction",
        ),
    )
}
