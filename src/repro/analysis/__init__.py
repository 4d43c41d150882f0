"""Correctness tooling for the simulator: static lint + runtime invariants.

The whole value of this reproduction rests on two properties that
ordinary tests check only indirectly:

* **bit-reproducibility** -- the integer-microsecond engine plus the
  stream-separated :class:`~repro.sim.rng.SimRng` make every run a pure
  function of its seed.  One stray iteration over an unordered ``set``
  in a scheduling decision path, one ``time.time()`` call, or one float
  creeping into an engine timestamp silently breaks that.
* **the paper's invariants** -- ``speed = t_exec / t_real`` is only
  meaningful if ``t_exec <= t_real`` and busy time is conserved; the
  speed balancer's two-interval migration block and NUMA-domain fence
  are only reproductions of the artifact if they actually hold.

This package provides one layer per property, plus a third that audits
the artifacts both are judged from:

* :mod:`repro.analysis.lint` -- an AST-based determinism linter
  (``python -m repro.analysis lint src/repro``) with rules SIM001..
  SIM007;
* :mod:`repro.analysis.flow` -- a whole-program flow analyzer
  (``python -m repro.analysis flow``) that builds a name-resolved call
  graph and runs an interprocedural taint fixpoint, closing the SIM
  rules' cross-function blind spots (rules FLOW001..FLOW005);
* :mod:`repro.analysis.kernel` -- a compiled-kernel readiness analyzer
  (``python -m repro.analysis kernel``, rules KERN001..KERN008) on the
  same solved flow program;
* :mod:`repro.analysis.driver` -- what the three static analyzers
  share: one finding type, suppression comments, allowlists, the
  strict-ratchet findings baseline, the report formats and the CLI;
* :mod:`repro.analysis.invariants` -- an opt-in runtime
  :class:`~repro.analysis.invariants.InvariantChecker` hooked into
  :class:`~repro.sim.engine.Engine` and :class:`~repro.system.System`
  (``repro check --invariants``), enabled for the whole test suite by
  a conftest fixture;
* :mod:`repro.analysis.sanitizer` -- a post-hoc schedule sanitizer
  (``repro sanitize``) that recomputes races, double charges and
  conservation from the *recorded trace* (rules SAN001..SAN007) and
  replays the recorded migration history against the speed balancer's
  policy, with :mod:`repro.analysis.differential` re-running scenarios
  under perturbations (hash seed, observers, worker processes) and
  comparing canonical digests (SAN008).

See ``docs/analysis.md`` for the rule catalogues.

Submodules are imported on use: the package itself loads nothing, so
the store's digest path (:mod:`repro.analysis.sanitizer`) does not pay
for the static analyzers.
"""
