"""Tests for the whole-program flow analyzer (:mod:`repro.analysis.flow`).

Each FLOW rule gets a planted interprocedural fixture the per-file SIM
linter provably misses, plus clean cases showing the detainting rules
(timestamp algebra, seeded rngs, sorted boundaries) avoid false
positives.  The repo-is-clean test at the bottom is the acceptance
check: the shipped tree analyzes to zero findings against the shipped
zero-entry allowlist and baseline.
"""

import json
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import suppress
from repro.analysis.driver import (
    Finding,
    apply_baseline,
    fingerprint,
    load_baseline,
    main as analysis_main,
    write_baseline,
)
from repro.analysis.flow import (
    DEFAULT_ALLOWLIST,
    DEFAULT_BASELINE,
    FLOW_RULES,
    flow_paths,
)
from repro.analysis.lint import lint_source

REPO = Path(__file__).resolve().parents[1]


def flow_main(argv: list[str]) -> int:
    return analysis_main(["flow", *argv])


def write_tree(root: Path, files: dict) -> None:
    """Materialize ``relative-path -> source`` with package __init__ chain."""
    for rel, src in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))
        d = p.parent
        while d != root:
            init = d / "__init__.py"
            if not init.exists():
                init.write_text("")
            d = d.parent


def flow_rules(root: Path, files: dict) -> list:
    write_tree(root, files)
    return [f.rule for f in flow_paths([root])]


class TestFlow001FloatOnTimestamp:
    def test_two_function_float_leak_missed_by_lint(self, tmp_path):
        """The acceptance case: SIM004 sees neither file, flow does."""
        helper = """\
        def halve(t):
            return t / 2
        """
        caller = """\
        from repro.sched.helpers import halve


        def decide(engine):
            t = engine.now
            return halve(t)
        """
        for src in (helper, caller):
            assert [
                f.rule for f in lint_source(textwrap.dedent(src), Path("src/repro/sched/x.py"))
            ] == []
        write_tree(tmp_path, {"repro/sched/helpers.py": helper, "repro/sched/leak.py": caller})
        findings = flow_paths([tmp_path])
        assert [f.rule for f in findings] == ["FLOW001"]
        assert findings[0].path.endswith("leak.py")
        assert "halve" in findings[0].message

    def test_float_return_reaches_schedule_time(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/sched/timer.py": """\
                def jitter():
                    return 1.5


                def arm(engine):
                    engine.schedule(jitter(), "tick")
                """
            },
        ) == ["FLOW001"]

    def test_transitive_wrapper_chain(self, tmp_path):
        """The sink summary propagates through a forwarding wrapper."""
        assert flow_rules(
            tmp_path,
            {
                "repro/sched/deep.py": """\
                def divide(x):
                    return x / 4


                def forward(y):
                    return divide(y)


                def top(engine):
                    return forward(engine.now)
                """
            },
        ) == ["FLOW001"]

    def test_duration_division_is_clean(self, tmp_path):
        """timestamp - timestamp is a duration; dividing it is the paper."""
        assert flow_rules(
            tmp_path,
            {
                "repro/core/metric.py": """\
                def speed(engine, prev):
                    dur = engine.now - prev
                    return dur / 1000
                """
            },
        ) == []

    def test_sink_outside_time_dirs_is_clean(self, tmp_path):
        """Display math in metrics/ may scale timestamps freely."""
        assert flow_rules(
            tmp_path,
            {
                "repro/metrics/plot.py": """\
                def axis(engine):
                    t = engine.now
                    return t / 1e6
                """
            },
        ) == []


class TestFlow002RandomnessIntoDecisions:
    def test_random_return_reaches_decision_module(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/harness/noise.py": """\
                import random


                def draw():
                    return random.random()
                """,
                "repro/balance/decide.py": """\
                from repro.harness.noise import draw


                def decide():
                    return draw() > 0.5
                """,
            },
        ) == ["FLOW002"]

    def test_random_arg_passed_into_decision_callee(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/balance/pick.py": """\
                def pick(jitter):
                    return jitter
                """,
                "repro/harness/drive.py": """\
                import random

                from repro.balance.pick import pick


                def drive():
                    return pick(random.random())
                """,
            },
        ) == ["FLOW002"]

    def test_seeded_rng_is_clean(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/harness/noise.py": """\
                import random


                def draw(seed):
                    r = random.Random(seed)
                    return r.random()
                """,
                "repro/balance/decide.py": """\
                from repro.harness.noise import draw


                def decide():
                    return draw(42) > 0.5
                """,
            },
        ) == []


class TestFlow003EscapedSetIteration:
    def test_set_return_iterated_in_decision_module(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/harness/pool.py": """\
                def live():
                    return {1, 2, 3}
                """,
                "repro/sched/scan.py": """\
                from repro.harness.pool import live


                def scan():
                    out = []
                    for t in live():
                        out.append(t)
                    return out
                """,
            },
        ) == ["FLOW003"]

    def test_set_passed_into_decision_iterator(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/balance/picker.py": """\
                def pick(cands):
                    best = None
                    for c in cands:
                        best = c
                    return best
                """,
                "repro/harness/drive.py": """\
                from repro.balance.picker import pick


                def drive(ids):
                    return pick(set(ids))
                """,
            },
        ) == ["FLOW003"]

    def test_sorted_boundary_is_clean(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/harness/pool.py": """\
                def live():
                    return {1, 2, 3}
                """,
                "repro/sched/scan.py": """\
                from repro.harness.pool import live


                def scan():
                    return [t for t in sorted(live())]
                """,
            },
        ) == []

    def test_local_set_stays_lints_domain(self, tmp_path):
        """A set that never crosses a function boundary is SIM001's job."""
        assert flow_rules(
            tmp_path,
            {
                "repro/sched/local.py": """\
                def scan():
                    for t in {1, 2, 3}:  # sim-lint: ignore[SIM001]
                        pass
                """
            },
        ) == []


class TestFlow004HotPathGlobalWrites:
    def test_global_dict_write_in_sched(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/sched/cache.py": """\
                _CACHE = {}


                def remember(key, value):
                    _CACHE[key] = value
                """
            },
        ) == ["FLOW004"]

    def test_mutation_reachable_through_call_chain(self, tmp_path):
        findings_files = {
            "repro/util/reg.py": """\
            REGISTRY = []


            def add(x):
                REGISTRY.append(x)
            """,
            "repro/sched/use.py": """\
            from repro.util.reg import add


            def tick():
                add(1)
            """,
        }
        write_tree(tmp_path, findings_files)
        findings = flow_paths([tmp_path])
        assert [f.rule for f in findings] == ["FLOW004"]
        assert findings[0].path.endswith("reg.py")
        assert "repro.sched.use:tick" in findings[0].message

    def test_iterator_advance_counts_as_write(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/sched/ids.py": """\
                import itertools

                _ids = itertools.count()


                def fresh():
                    return next(_ids)
                """
            },
        ) == ["FLOW004"]

    def test_cold_path_mutation_is_clean(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/metrics/agg.py": """\
                TOTALS = {}


                def tally(key):
                    TOTALS[key] = TOTALS.get(key, 0) + 1
                """
            },
        ) == []

    def test_local_shadow_is_clean(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/sched/shadow.py": """\
                _CACHE = {}


                def pure(key):
                    _CACHE = {}
                    _CACHE[key] = 1
                    return _CACHE
                """
            },
        ) == []


class TestFlow005ClosuresIntoStoreKeys:
    def test_lambda_direct_to_spec_digest(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/harness/save.py": """\
                from repro.store.keys import spec_digest


                def bad():
                    return spec_digest(lambda: 1)
                """
            },
        ) == ["FLOW005"]

    def test_lambda_via_intermediary(self, tmp_path):
        findings_files = {
            "repro/harness/save.py": """\
            from repro.store.keys import spec_digest


            def save(spec):
                return spec_digest(spec)


            def bad():
                return save(lambda: 1)
            """
        }
        write_tree(tmp_path, findings_files)
        findings = flow_paths([tmp_path])
        assert [f.rule for f in findings] == ["FLOW005"]
        assert "save" in findings[0].message

    def test_local_function_flagged(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/harness/save.py": """\
                from repro.store.keys import digest_of


                def bad():
                    def inner():
                        return 1

                    return digest_of(inner)
                """
            },
        ) == ["FLOW005"]

    def test_module_level_function_is_clean(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/harness/save.py": """\
                from repro.store.keys import spec_digest


                def payload():
                    return 1


                def good():
                    return spec_digest(payload)
                """
            },
        ) == []


class TestCallGraphEdges:
    def test_method_resolution_on_constructed_instance(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/sched/scaler.py": """\
                class Scaler:
                    def scale(self, t):
                        return t / 4


                def use(engine):
                    s = Scaler()
                    return s.scale(engine.now)
                """
            },
        ) == ["FLOW001"]

    def test_reexport_chain(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/balance/__init__.py": "from repro.balance.helpers import halve\n",
                "repro/balance/helpers.py": """\
                def halve(t):
                    return t / 2
                """,
                "repro/sched/user.py": """\
                from repro.balance import halve


                def go(engine):
                    t = engine.now
                    return halve(t)
                """,
            },
        ) == ["FLOW001"]

    def test_aliased_module_import(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/sched/helpers.py": """\
                def halve(t):
                    return t / 2
                """,
                "repro/sched/alias_user.py": """\
                import repro.sched.helpers as hh


                def go(engine):
                    return hh.halve(engine.now)
                """,
            },
        ) == ["FLOW001"]

    def test_relative_import(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/sched/helpers.py": """\
                def halve(t):
                    return t / 2
                """,
                "repro/sched/rel_user.py": """\
                from .helpers import halve


                def go(engine):
                    return halve(engine.now)
                """,
            },
        ) == ["FLOW001"]


class TestSuppression:
    def test_mixed_sim_flow_ids_parse(self):
        rules = suppress.suppressed_rules("x = 1  # sim-lint: ignore[SIM004, FLOW001]")
        assert rules == frozenset({"SIM004", "FLOW001"})

    def test_lint_honours_mixed_comment(self):
        src = "for x in {1, 2, 3}:  # sim-lint: ignore[SIM001, FLOW003]\n    pass\n"
        assert [f.rule for f in lint_source(src, Path("src/repro/balance/fake.py"))] == []

    def test_flow_honours_mixed_comment(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/harness/pool.py": """\
                def live():
                    return {1, 2, 3}
                """,
                "repro/sched/scan.py": """\
                from repro.harness.pool import live


                def scan():
                    for t in live():  # sim-lint: ignore[SIM001, FLOW003]
                        pass
                """,
            },
        ) == []

    def test_unrelated_id_does_not_suppress(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/sched/cache.py": """\
                _CACHE = {}


                def remember(key, value):
                    _CACHE[key] = value  # sim-lint: ignore[FLOW001]
                """
            },
        ) == ["FLOW004"]

    def test_skip_file(self, tmp_path):
        assert flow_rules(
            tmp_path,
            {
                "repro/sched/cache.py": """\
                # sim-lint: skip-file
                _CACHE = {}


                def remember(key, value):
                    _CACHE[key] = value
                """
            },
        ) == []


class TestBaselineRatchet:
    FIXTURE = {
        "repro/sched/cache.py": """\
        _CACHE = {}


        def remember(key, value):
            _CACHE[key] = value
        """
    }

    def test_fingerprint_is_layout_stable(self):
        a = Finding("src/repro/sched/x.py", 3, 1, "FLOW004", "m", "repro.sched.x:f")
        b = Finding("/opt/lib/repro/sched/x.py", 9, 5, "FLOW004", "m", "repro.sched.x:f")
        assert fingerprint(a) == fingerprint(b)

    def test_round_trip_and_both_ratchet_directions(self, tmp_path):
        write_tree(tmp_path, self.FIXTURE)
        findings = flow_paths([tmp_path])
        assert findings
        bl = tmp_path / "baseline.txt"
        write_baseline(findings, bl, "flow")
        allowed = load_baseline(bl, frozenset(FLOW_RULES))

        new, stale = apply_baseline(findings, allowed)
        assert new == [] and stale == []
        # finding fixed but baseline entry kept -> stale fails the run
        new, stale = apply_baseline([], allowed)
        assert new == [] and stale == [fingerprint(findings[0])]
        # one more finding of the same fingerprint -> new fails the run
        new, stale = apply_baseline(findings + findings, allowed)
        assert new == findings and stale == []

    def test_multiplicity_suffix(self, tmp_path):
        f = Finding("repro/sched/x.py", 3, 1, "FLOW004", "m", "repro.sched.x:f")
        g = Finding("repro/sched/x.py", 9, 1, "FLOW004", "m", "repro.sched.x:f")
        bl = tmp_path / "baseline.txt"
        write_baseline([f, g], bl, "flow")
        assert f"{fingerprint(f)} x2" in bl.read_text()
        allowed = load_baseline(bl, frozenset(FLOW_RULES))
        assert allowed == Counter({fingerprint(f): 2})

    def test_unknown_rule_id_rejected(self, tmp_path):
        bl = tmp_path / "baseline.txt"
        bl.write_text("FLOW999 repro/x.py:mod:f\n")
        with pytest.raises(ValueError):
            load_baseline(bl, frozenset(FLOW_RULES))


class TestCli:
    FIXTURE = {
        "repro/sched/cache.py": """\
        _CACHE = {}


        def remember(key, value):
            _CACHE[key] = value
        """,
        "repro/sched/timer.py": """\
        def jitter():
            return 1.5


        def arm(engine):
            engine.schedule(jitter(), "tick")
        """,
    }

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_tree(tmp_path, {"repro/sched/ok.py": "def f(x):\n    return x + 1\n"})
        assert flow_main([str(tmp_path), "--no-baseline", "--no-allowlist"]) == 0

    def test_exit_one_and_report_on_findings(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        assert flow_main([str(tmp_path), "--no-baseline", "--no-allowlist"]) == 1
        out = capsys.readouterr().out
        assert "FLOW004" in out and "FLOW001" in out

    def test_format_json(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        rc = flow_main(
            [str(tmp_path), "--no-baseline", "--no-allowlist", "--format", "json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert sorted(d["rule"] for d in data) == ["FLOW001", "FLOW004"]
        assert all("function" in d for d in data)

    def test_select_filters_rules(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        assert (
            flow_main(
                [str(tmp_path), "--no-baseline", "--no-allowlist", "--select", "FLOW004"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "FLOW004" in out and "FLOW001" not in out

    def test_unknown_select_rejected(self, tmp_path, capsys):
        assert flow_main([str(tmp_path), "--select", "FLOW999"]) == 2

    def test_write_baseline_then_ratchet(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        bl = tmp_path / "baseline.txt"
        assert (
            flow_main(
                [str(tmp_path), "--no-allowlist", "--baseline", str(bl), "--write-baseline"]
            )
            == 0
        )
        # baselined findings no longer fail the run ...
        assert flow_main([str(tmp_path), "--no-allowlist", "--baseline", str(bl)]) == 0
        capsys.readouterr()
        # ... but fixing one makes its entry stale, which fails again
        (tmp_path / "repro/sched/cache.py").write_text("def remember(k, v):\n    return (k, v)\n")
        assert flow_main([str(tmp_path), "--no-allowlist", "--baseline", str(bl)]) == 1
        assert "stale baseline entry" in capsys.readouterr().err


class TestCatalogue:
    def test_rule_ids_complete(self):
        assert sorted(FLOW_RULES) == [f"FLOW00{i}" for i in range(1, 6)]

    def test_rules_command_prints_flow_catalogue(self, capsys):
        from repro.analysis.__main__ import main as analysis_main

        assert analysis_main(["rules"]) == 0
        out = capsys.readouterr().out
        for rid in FLOW_RULES:
            assert rid in out
        assert "SIM001" in out and "INV001" in out and "SAN001" in out


class TestRepoIsClean:
    def test_whole_tree_zero_findings(self):
        findings = flow_paths([REPO / "src" / "repro"])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_shipped_allowlist_is_zero_entry(self):
        entries = suppress.load_allowlist(DEFAULT_ALLOWLIST, frozenset(FLOW_RULES))
        assert entries == []

    def test_shipped_baseline_is_zero_entry(self):
        allowed = load_baseline(DEFAULT_BASELINE, frozenset(FLOW_RULES))
        assert allowed == Counter()
