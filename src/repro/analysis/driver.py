"""One driver for the three static analyzers.

The determinism linter (:mod:`repro.analysis.lint`, SIM rules), the
whole-program flow analyzer (:mod:`repro.analysis.flow`, FLOW rules)
and the compiled-kernel readiness analyzer
(:mod:`repro.analysis.kernel`, KERN rules) differ only in what they
look for.  Everything around that lives here, once:

* one :class:`Rule` and one :class:`Finding` type;
* one suppression + allowlist filter (:func:`filter_findings`, over
  the :mod:`repro.analysis.suppress` conventions);
* one two-way-ratchet findings baseline (fingerprint, load, apply,
  write) -- a finding not in the baseline fails the run, and so does a
  baseline entry no finding matches, so fixed debt must be deleted;
* one ``--format text|json`` emitter and one exit-code contract
  (0 clean, 1 findings / stale entries / unparseable files, 2 usage);
* one argparse parser and :func:`main` behind
  ``python -m repro.analysis lint|flow|kernel|rules``, plus
  :func:`check`, which ``repro check`` uses.

Each analyzer module exports an :class:`Analyzer` record named
``ANALYZER``.  One :class:`Workspace` per invocation parses the tree
and solves the flow fixpoint at most once, so flow and kernel run off
the same solved :class:`~repro.analysis.flow.summaries.FlowAnalysis`.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.analysis import suppress

if TYPE_CHECKING:
    from repro.analysis.flow.summaries import FlowAnalysis

__all__ = [
    "NAMES",
    "Rule",
    "Finding",
    "Report",
    "Analyzer",
    "Workspace",
    "Outcome",
    "get",
    "iter_files",
    "filter_findings",
    "fingerprint",
    "load_baseline",
    "apply_baseline",
    "write_baseline",
    "run",
    "check",
    "emit",
    "missing_paths",
    "build_parser",
    "main",
]

#: the analyzers, in run order; ``repro.analysis.<name>.ANALYZER``
NAMES = ("lint", "flow", "kernel")

Allowlist = Sequence[tuple[str, str]]


@dataclass(frozen=True)
class Rule:
    """One rule of a catalogue."""

    id: str
    summary: str


@dataclass(frozen=True)
class Finding:
    """One violation, shaped ``path:line:col: RULE message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: qualified name of the enclosing function or class ("" for lint)
    function: str = ""

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class Report:
    """What one analyzer found, before the baseline is applied."""

    findings: list[Finding]  # suppressions and allowlist already applied
    #: tail of the text summary line, e.g. ``across 7 module(s), ...``
    summary: str
    errors: list[tuple[str, int, int, str]] = field(default_factory=list)
    #: analyzer-specific keys for the JSON report of ``repro check --all``
    extra: dict[str, Any] = field(default_factory=dict)


class Workspace:
    """The paths under analysis, parsed and flow-solved at most once."""

    def __init__(self, paths: Iterable[str | Path]) -> None:
        self.paths = list(paths)
        self._flow: Optional[FlowAnalysis] = None

    def flow(self) -> FlowAnalysis:
        if self._flow is None:
            from repro.analysis.flow import solve

            self._flow = solve(self.paths)
        return self._flow


@dataclass(frozen=True)
class Analyzer:
    """One rule family: its catalogue, shipped files and analysis."""

    name: str
    #: what it is, as in "Findings baseline for the <title>"
    title: str
    description: str
    rules: Mapping[str, Rule]
    allowlist: Path
    baseline: Path  # absent = empty: the ratchet is strict from zero
    analyze: Callable[[Workspace, Allowlist], Report]


def get(name: str) -> Analyzer:
    """The :class:`Analyzer` record of ``repro.analysis.<name>``."""
    analyzer: Analyzer = importlib.import_module(f"repro.analysis.{name}").ANALYZER
    return analyzer


# ----------------------------------------------------------------------
# sources, suppressions, allowlists
# ----------------------------------------------------------------------
def iter_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``*.py`` under ``paths`` (files as given, trees sorted)."""
    for p in paths:
        p = Path(p)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        else:
            yield p


def missing_paths(paths: Iterable[str | Path]) -> list[str]:
    return [str(p) for p in paths if not Path(p).exists()]


def filter_findings(
    findings: Iterable[Finding], sources: Mapping[str, str], allowlist: Allowlist
) -> list[Finding]:
    """Drop findings silenced by a comment or an allowlist entry.

    ``sources`` maps a finding's path to its file's source text, for
    ``# sim-lint: skip-file`` and ``# sim-lint: ignore[...]``.
    """
    lines: dict[str, list[str]] = {}
    kept: list[Finding] = []
    for f in findings:
        source = sources.get(f.path)
        if source is not None:
            if suppress.has_skip_file(source):
                continue
            if f.path not in lines:
                lines[f.path] = source.splitlines()
            if suppress.is_suppressed(f.rule, f.line, lines[f.path]):
                continue
        if suppress.allowlisted(f.rule, f.path, allowlist):
            continue
        kept.append(f)
    return kept


# ----------------------------------------------------------------------
# the two-way-ratchet baseline
# ----------------------------------------------------------------------
_HEADER = """\
# Findings baseline for the {title} (strict ratchet).
#
# One fingerprint per line: RULE repro-relative-path:function-qual [xN]
# New findings not listed here FAIL the run; listed entries with no
# matching finding ALSO fail (delete fixed debt).  Regenerate with:
#   python -m repro.analysis {name} --write-baseline
"""


def _norm_path(path: str) -> str:
    """Path relative to the innermost ``repro`` directory.

    Makes fingerprints stable between ``src/repro/...`` checkouts and
    installed-package layouts.
    """
    parts = PurePosixPath(Path(path).as_posix()).parts
    if "repro" in parts:
        last = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        parts = parts[last:]
    return "/".join(parts)


def fingerprint(finding: Finding) -> str:
    """``RULE path:function`` -- line-independent, so moving code inside
    a function does not churn the baseline."""
    return f"{finding.rule} {_norm_path(finding.path)}:{finding.function}"


def load_baseline(path: Path, known_rules: Iterable[str]) -> Counter[str]:
    """Parse the baseline into fingerprint -> allowed count."""
    allowed: Counter[str] = Counter()
    if not path.exists():
        return allowed
    known = frozenset(known_rules)
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        count = 1
        if len(parts) == 3 and parts[2].startswith("x") and parts[2][1:].isdigit():
            count = int(parts[2][1:])
            parts = parts[:2]
        if len(parts) != 2 or parts[0] not in known:
            raise ValueError(
                f"{path}:{lineno}: expected '<RULE> <path:function> [xN]', got {raw!r}"
            )
        allowed[f"{parts[0]} {parts[1]}"] += count
    return allowed


def apply_baseline(
    findings: Sequence[Finding], allowed: Counter[str]
) -> tuple[list[Finding], list[str]]:
    """Split findings into (new, stale-baseline-entries).

    The first ``allowed[fp]`` findings per fingerprint are baselined;
    any excess is new.  Entries whose budget is not fully consumed are
    stale and must be removed from the file.
    """
    remaining = Counter(allowed)
    new: list[Finding] = []
    for f in findings:
        fp = fingerprint(f)
        if remaining.get(fp, 0) > 0:
            remaining[fp] -= 1
        else:
            new.append(f)
    stale = sorted(fp for fp, n in remaining.items() if n > 0)
    return new, stale


def _split_baseline(
    allowed: Counter[str], rules: Iterable[str]
) -> tuple[Counter[str], Counter[str]]:
    """Split baseline entries into (those of ``rules``, all the others)."""
    wanted = frozenset(rules)
    mine: Counter[str] = Counter()
    others: Counter[str] = Counter()
    for fp, n in allowed.items():
        (mine if fp.split(" ", 1)[0] in wanted else others)[fp] = n
    return mine, others


def write_baseline(
    findings: Iterable[Finding],
    path: Path,
    tool: str,
    kept: Optional[Counter[str]] = None,
) -> None:
    """Write ``findings`` (plus the ``kept`` entries) as a baseline;
    ``tool`` names the analyzer in the header."""
    counts = Counter(fingerprint(f) for f in findings) + (kept or Counter())
    lines = [_HEADER.format(title=get(tool).title, name=tool)]
    for fp in sorted(counts):
        n = counts[fp]
        lines.append(fp if n == 1 else f"{fp} x{n}")
    path.write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# running and reporting
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One analyzer's run after the baseline: what fails it."""

    analyzer: Analyzer
    report: Report
    new: list[Finding]
    stale: list[str]

    @property
    def failed(self) -> bool:
        return bool(self.new or self.stale or self.report.errors)

    def summary(self) -> str:
        n = len(self.stale)
        return (
            f"{self.analyzer.name}: {len(self.new)} new finding(s), {n} stale "
            f"baseline entr{'y' if n == 1 else 'ies'} {self.report.summary}"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "status": "fail" if self.failed else "ok",
            "findings": [f.as_dict() for f in self.new],
            "stale_baseline": self.stale,
            "errors": [list(e) for e in self.report.errors],
            **self.report.extra,
        }


def run(
    analyzer: Analyzer,
    workspace: Workspace,
    allowlist: Optional[Path],
    baseline: Optional[Path],
    select: Iterable[str] = (),
) -> Outcome:
    """Analyze, keep the ``select``-ed rules (all if empty), ratchet.

    ``None`` for ``allowlist`` or ``baseline`` skips that file; a path
    that does not exist counts as an empty file.
    """
    entries: list[tuple[str, str]] = []
    if allowlist is not None and allowlist.exists():
        entries = suppress.load_allowlist(allowlist, frozenset(analyzer.rules))
    report = analyzer.analyze(workspace, entries)
    findings = report.findings
    wanted = frozenset(select)
    if wanted:
        findings = [f for f in findings if f.rule in wanted]
    allowed: Counter[str] = Counter()
    if baseline is not None:
        allowed = load_baseline(baseline, analyzer.rules)
    if wanted:
        # an unselected rule's entries are neither matched nor stale
        allowed, _ = _split_baseline(allowed, wanted)
    new, stale = apply_baseline(findings, allowed)
    return Outcome(analyzer, report, new, stale)


def check(names: Sequence[str], paths: Sequence[str | Path]) -> list[Outcome]:
    """Run ``names`` over one shared workspace with the shipped files."""
    workspace = Workspace(paths)
    outcomes: list[Outcome] = []
    for name in names:
        analyzer = get(name)
        outcomes.append(run(analyzer, workspace, analyzer.allowlist, analyzer.baseline))
    return outcomes


def _print_errors(report: Report) -> None:
    for path, line, col, message in report.errors:
        print(f"{path}:{line}:{col}: {message}", file=sys.stderr)


def emit(outcomes: Iterable[Outcome], fmt: str = "text") -> int:
    """Print each outcome; the exit code (1 if any failed, else 0).

    Findings go to stdout -- one line each, or a JSON array that is the
    whole output, so machine consumers never strip trailers.  Parse
    errors, stale entries and the text summary line go to stderr.
    """
    status = 0
    for outcome in outcomes:
        _print_errors(outcome.report)
        if fmt == "json":
            print(json.dumps([f.as_dict() for f in outcome.new], indent=2, sort_keys=True))
        else:
            for f in outcome.new:
                print(f.format())
        for fp in outcome.stale:
            print(f"stale baseline entry (finding fixed -- delete it): {fp}", file=sys.stderr)
        if fmt == "text":
            print(outcome.summary(), file=sys.stderr)
        if outcome.failed:
            status = 1
    return status


# ----------------------------------------------------------------------
# the command line
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze "
        "(default: src/repro, or the installed repro package)",
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report findings as text lines (default) or a JSON array",
    )
    common.add_argument(
        "--allowlist", type=Path, help="RULE path-glob allowlist file (default: the shipped one)"
    )
    common.add_argument(
        "--no-allowlist", action="store_true", help="ignore the allowlist entirely"
    )
    common.add_argument(
        "--baseline", type=Path, help="findings baseline file (default: the shipped one)"
    )
    common.add_argument(
        "--no-baseline", action="store_true", help="report every finding, ignoring the baseline"
    )
    common.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from current findings and exit 0",
    )
    common.add_argument(
        "--select",
        action="append",
        metavar="RULE[,RULE...]",
        help="restrict to these rule ids (repeatable, comma-separated)",
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analyzers for the simulator sources.  The runtime "
        "invariant checker needs a simulation, so it runs as "
        "`repro check --invariants`.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in NAMES:
        analyzer = get(name)
        sub.add_parser(
            name,
            parents=[common],
            help=f"run the {analyzer.title}",
            description=analyzer.description,
        )
    sub.add_parser("rules", help="print every rule catalogue")
    return parser


def _default_paths() -> list[str]:
    if Path("src/repro").is_dir():
        return ["src/repro"]
    import repro

    return [str(Path(repro.__file__).resolve().parent)]


def _print_rules() -> None:
    from repro.analysis.invariants import INVARIANTS
    from repro.analysis.sanitizer import SAN_RULES

    catalogues = [
        (
            f"Rules of the {a.title} (repro.analysis.{a.name}, `{a.name}`):",
            {rule.id: rule.summary for rule in a.rules.values()},
        )
        for a in map(get, NAMES)
    ]
    catalogues.append(("Runtime invariants (repro.analysis.invariants):", INVARIANTS))
    catalogues.append(
        ("Schedule sanitizer rules (repro.analysis.sanitizer, `repro sanitize`):", SAN_RULES)
    )
    for title, rules in catalogues:
        print(title)
        for rid, summary in rules.items():
            print(f"  {rid}  {summary}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "rules":
        _print_rules()
        return 0
    analyzer = get(args.command)
    paths = args.paths or _default_paths()
    missing = missing_paths(paths)
    if missing:
        print(f"{analyzer.name}: error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    select = {r.strip() for value in args.select or () for r in value.split(",") if r.strip()}
    unknown = sorted(select - set(analyzer.rules))
    if unknown:
        print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    allowlist = None if args.no_allowlist else args.allowlist or analyzer.allowlist
    baseline_path = args.baseline or analyzer.baseline
    baseline = None if args.no_baseline or args.write_baseline else baseline_path
    outcome = run(analyzer, Workspace(paths), allowlist, baseline, select)
    if args.write_baseline:
        _print_errors(outcome.report)
        kept: Counter[str] = Counter()
        if select:
            # rewrite only the selected rules' entries
            _, kept = _split_baseline(
                load_baseline(baseline_path, analyzer.rules), select
            )
        write_baseline(outcome.new, baseline_path, analyzer.name, kept)
        print(
            f"{analyzer.name}: wrote {len(outcome.new)} finding(s) to {baseline_path}",
            file=sys.stderr,
        )
        return 0
    return emit([outcome], args.format)
