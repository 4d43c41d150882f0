"""Compiled-kernel readiness analyzer (KERN rules).

The native engine (:mod:`repro.sim.backends.native`) already runs the
event loop and the CFS dispatch chain as a line-for-line C twin of the
Python code, and the next compiled target is picked by the layer
profile (the Linux balancer tick).  Each such port only works if the
kernel zone (``repro.sim.*``, ``repro.sched.*``, ``repro.balance.*``,
``repro.mem.*``) stays a *compilable subset*: fixed class layouts,
type-stable attributes, fully annotated hot signatures, no per-event
closures, no dynamic dispatch probes.  This package proves those
properties statically on the FLOW analyzer's solved program: its
module loader, name-resolved call graph and converged call summaries
(the fixpoint provides the dispatch-reachability edges).

Layering: ``rules`` (catalogue) -> ``analyzer`` (the three analysis
passes).  Suppression, allowlist, baseline and reporting are the
shared :mod:`repro.analysis.driver` ones, so ``# sim-lint:
ignore[KERN005]`` works exactly like its SIM/FLOW counterparts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.driver import Analyzer, Finding, Report, filter_findings
from repro.analysis.flow import solve
from repro.analysis.flow.summaries import FlowAnalysis
from repro.analysis.kernel.analyzer import KernelAnalysis, kernel_module
from repro.analysis.kernel.rules import KERN_RULES

__all__ = [
    "ANALYZER",
    "KERN_RULES",
    "DEFAULT_ALLOWLIST",
    "DEFAULT_BASELINE",
    "kernel_paths",
]

#: shipped zero-entry allowlist, next to the linter's and flow's
DEFAULT_ALLOWLIST = Path(__file__).resolve().parent.parent / "kernel_allowlist.txt"
#: committed findings baseline (strict ratchet; see ``repro.analysis.driver``)
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "kernel_baseline.txt"


def _report(flow: FlowAnalysis, allowlist: Sequence[tuple[str, str]]) -> Report:
    """Kernel findings on a solved flow analysis.

    The whole tree is loaded (cross-zone calls must resolve) but
    findings are only emitted for kernel-zone modules.
    """
    analysis = KernelAnalysis(flow.program, flow)
    raw = analysis.run()
    modules = flow.program.modules
    zone = sum(1 for m in modules if kernel_module(m.name))
    return Report(
        findings=filter_findings(raw, {str(m.path): m.source for m in modules}, allowlist),
        errors=list(modules.errors),
        summary=(
            f"across {zone} kernel module(s) ({len(modules)} loaded), "
            f"{len(analysis.reachable)} dispatch-reachable function(s)"
        ),
        extra={"reachable": len(analysis.reachable)},
    )


def kernel_paths(
    paths: Iterable[str | Path],
    allowlist: Sequence[tuple[str, str]] = (),
) -> list[Finding]:
    """Findings for ``paths`` (the test-friendly entry point)."""
    return _report(solve(paths), allowlist).findings


ANALYZER = Analyzer(
    name="kernel",
    title="kernel readiness analyzer",
    description=(
        "Compiled-kernel readiness analyzer: proves the hot core "
        "(repro.sim/sched/balance/mem) is a type-stable, compilable "
        "subset (KERN rules)."
    ),
    rules=KERN_RULES,
    allowlist=DEFAULT_ALLOWLIST,
    baseline=DEFAULT_BASELINE,
    analyze=lambda workspace, allowlist: _report(workspace.flow(), allowlist),
)
