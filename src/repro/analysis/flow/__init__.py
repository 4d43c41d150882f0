"""Whole-program determinism flow analyzer (FLOW rules).

Where :mod:`repro.analysis.lint` checks one file at a time, this
package parses every module under the given paths once, builds a
name-resolved call graph, computes per-function taint summaries and
runs an interprocedural fixpoint -- closing the blind spots a
per-file linter cannot see (``t = engine.now; helper(t)`` where the
float division happens inside ``helper``).

Layering: ``modules`` (parse + name) -> ``callgraph`` (program index)
-> ``summaries`` (taint fixpoint) -> ``rules`` (catalogue).  The
solved :class:`~repro.analysis.flow.summaries.FlowAnalysis` is also
what the kernel analyzer runs on; :mod:`repro.analysis.driver` solves
it once per invocation and does the suppression, allowlist, baseline
and reporting for both.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.driver import Analyzer, Finding, Report, filter_findings
from repro.analysis.flow.callgraph import build_index
from repro.analysis.flow.modules import load_modules
from repro.analysis.flow.rules import FLOW_RULES
from repro.analysis.flow.summaries import FlowAnalysis

__all__ = [
    "ANALYZER",
    "FLOW_RULES",
    "DEFAULT_ALLOWLIST",
    "DEFAULT_BASELINE",
    "solve",
    "flow_paths",
]

#: shipped zero-entry allowlist, next to the linter's
DEFAULT_ALLOWLIST = Path(__file__).resolve().parent.parent / "flow_allowlist.txt"
#: committed findings baseline (strict ratchet; see ``repro.analysis.driver``)
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "flow_baseline.txt"


def solve(paths: Iterable[str | Path]) -> FlowAnalysis:
    """Parse every ``*.py`` under ``paths``, index it and solve the fixpoint."""
    analysis = FlowAnalysis(build_index(load_modules(paths)))
    analysis.solve()
    return analysis


def _report(analysis: FlowAnalysis, allowlist: Sequence[tuple[str, str]]) -> Report:
    modules = analysis.program.modules
    sources = {str(m.path): m.source for m in modules}
    return Report(
        findings=filter_findings(analysis.report(), sources, allowlist),
        errors=list(modules.errors),
        summary=(
            f"across {len(modules)} module(s), {len(analysis.program.functions)} "
            f"function(s), {analysis.rounds} fixpoint round(s)"
        ),
    )


def flow_paths(
    paths: Iterable[str | Path],
    allowlist: Sequence[tuple[str, str]] = (),
) -> list[Finding]:
    """Findings for ``paths`` (the test-friendly entry point)."""
    return _report(solve(paths), allowlist).findings


ANALYZER = Analyzer(
    name="flow",
    title="flow analyzer",
    description=(
        "Whole-program determinism flow analyzer: call graph + taint "
        "fixpoint over the repro source tree (FLOW rules)."
    ),
    rules=FLOW_RULES,
    allowlist=DEFAULT_ALLOWLIST,
    baseline=DEFAULT_BASELINE,
    analyze=lambda workspace, allowlist: _report(workspace.flow(), allowlist),
)
