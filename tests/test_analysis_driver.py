"""Tests for the shared analysis driver (:mod:`repro.analysis.driver`).

The per-rule fixtures live in ``test_analysis_lint/flow/kernel``; these
tests cover what the three analyzers share: ``repro check``'s static
legs on one planted tree (one SIM, one FLOW and one KERN finding), the
single parse + flow fixpoint behind a flow+kernel run, and the import
cost of the package on the store's digest path.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import flow as flow_pkg
from repro.analysis.flow.summaries import FlowAnalysis
from repro.analysis.flow import flow_paths
from repro.analysis.kernel import kernel_paths
from repro.analysis.lint import lint_paths
from repro.cli import main as cli_main

REPO = Path(__file__).resolve().parents[1]

PLANTED = {
    # SIM002: the global random module outside repro/sim/rng.py
    "repro/harness/clock.py": "import random\n",
    # FLOW004: module-global state written on a hot scheduling path
    "repro/sched/cache.py": """\
        _CACHE = {}


        def remember(key, value):
            _CACHE[key] = value
        """,
    # KERN006: eval() in a kernel module
    "repro/sim/dyn.py": """\
        def parse(s: str) -> int:
            return eval(s)
        """,
}


@pytest.fixture
def planted(tmp_path):
    for rel, src in PLANTED.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))
        d = p.parent
        while d != tmp_path:
            (d / "__init__.py").touch()
            d = d.parent
    return tmp_path


def test_planted_tree_has_one_finding_per_family(planted):
    assert [f.rule for f in lint_paths([planted])] == ["SIM002"]
    assert [f.rule for f in flow_paths([planted])] == ["FLOW004"]
    assert [f.rule for f in kernel_paths([planted])] == ["KERN006"]


def test_check_static_legs_print_every_finding(planted, capsys):
    rc = cli_main(["check", "--lint", "--flow", "--kernel", "--paths", str(planted)])
    assert rc == 1
    out = capsys.readouterr().out.splitlines()
    findings = lint_paths([planted]) + flow_paths([planted]) + kernel_paths([planted])
    assert out == [f.format() for f in findings]


def test_check_all_merges_every_layer(planted, capsys):
    rc = cli_main([
        "check", "--all", "--paths", str(planted), "--seconds", "0.05", "--repeats", "1",
    ])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["flow", "invariants", "kernel", "lint", "status"]
    assert report["status"] == "fail" and report["invariants"]["status"] == "ok"
    leg_keys = ["errors", "findings", "stale_baseline", "status"]
    assert sorted(report["lint"]) == leg_keys
    assert sorted(report["flow"]) == leg_keys
    assert sorted(report["kernel"]) == sorted(leg_keys + ["reachable"])
    for leg, rule in (("lint", "SIM002"), ("flow", "FLOW004"), ("kernel", "KERN006")):
        assert report[leg]["status"] == "fail"
        assert [f["rule"] for f in report[leg]["findings"]] == [rule]
        assert report[leg]["stale_baseline"] == [] and report[leg]["errors"] == []
    assert report["lint"]["findings"][0]["function"] == ""


def test_flow_and_kernel_parse_and_solve_once(planted, monkeypatch, capsys):
    calls = {"load_modules": 0, "solve": 0}
    load_modules, solve = flow_pkg.load_modules, FlowAnalysis.solve

    def counting_load(paths):
        calls["load_modules"] += 1
        return load_modules(paths)

    def counting_solve(self):
        calls["solve"] += 1
        return solve(self)

    monkeypatch.setattr(flow_pkg, "load_modules", counting_load)
    monkeypatch.setattr(FlowAnalysis, "solve", counting_solve)
    assert cli_main(["check", "--flow", "--kernel", "--paths", str(planted)]) == 1
    assert calls == {"load_modules": 1, "solve": 1}
    out = capsys.readouterr().out
    assert "FLOW004" in out and "KERN006" in out


def test_check_missing_path_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert cli_main(["check", "--lint", "--paths", str(missing)]) == 2
    assert capsys.readouterr().err == f"lint: error: no such path: {missing}\n"


def test_sanitizer_import_leaves_static_analyzers_unloaded():
    """The store's digest path imports the sanitizer; it must not pay
    for the linter or the flow analyzer."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, repro.analysis.sanitizer\n"
        "print([m for m in ('repro.analysis.flow', 'repro.analysis.lint', "
        "'repro.analysis.kernel', 'repro.analysis.driver') if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    assert out.strip() == "[]"
