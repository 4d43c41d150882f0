"""Tests for the kernel readiness analyzer (:mod:`repro.analysis.kernel`).

Each KERN rule gets a planted fixture inside a synthetic kernel zone
(``repro.sim``/``repro.sched``/``repro.balance``), including the
cross-function cases only the whole-program view catches: attribute
tables fed through typed references, and dispatch reachability through
escaped callbacks and typed-attribute call edges.  The repo-is-clean
test at the bottom is the acceptance check: the shipped tree analyzes
to zero unsuppressed findings against the shipped allowlist and the
committed (KERN005-only) ratchet baseline.
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
from repro.analysis.kernel import (
    DEFAULT_ALLOWLIST,
    DEFAULT_BASELINE,
    KERN_RULES,
    kernel_paths,
)

REPO = Path(__file__).resolve().parents[1]


def kernel_main(argv: list[str]) -> int:
    return analysis_main(["kernel", *argv])


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


def kern_rules(root: Path, files: dict) -> list:
    write_tree(root, files)
    return [f.rule for f in kernel_paths([root])]


class TestKern001AttrOutsideInit:
    def test_attr_created_in_plain_method(self, tmp_path):
        findings = [
            f
            for f in (
                write_tree(
                    tmp_path,
                    {
                        "repro/sched/box.py": """\
                        class Box:
                            def __init__(self) -> None:
                                self.a = 0

                            def poke(self) -> None:
                                self.b = 1
                        """
                    },
                ),
                *kernel_paths([tmp_path]),
            )
            if f is not None
        ]
        assert [f.rule for f in findings] == ["KERN001"]
        assert "`b`" in findings[0].message and "Box" in findings[0].message

    def test_declared_attrs_and_slots_are_clean(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/box.py": """\
                    class Box:
                        __slots__ = ("a", "b")

                        def __init__(self) -> None:
                            self.a = 0

                        def poke(self) -> None:
                            self.b = 1
                            self.a += 1
                    """
                },
            )
            == []
        )

    def test_inherited_declaration_is_clean(self, tmp_path):
        """Assigning an attr the *base* __init__ declared is not creation."""
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/box.py": """\
                    class Base:
                        def __init__(self) -> None:
                            self.a = 0


                    class Sub(Base):
                        def touch(self) -> None:
                            self.a = 2
                    """
                },
            )
            == []
        )

    def test_monkeypatch_via_typed_reference(self, tmp_path):
        """A helper holding a typed reference invents an attribute."""
        write_tree(
            tmp_path,
            {
                "repro/sched/box.py": """\
                class Box:
                    def __init__(self) -> None:
                        self.a = 0
                """,
                "repro/sched/mut.py": """\
                from repro.sched.box import Box


                def monkey(b: Box) -> None:
                    b.extra = 1
                """,
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN001"]
        assert findings[0].path.endswith("mut.py")
        assert "typed reference" in findings[0].message


class TestKern002TypeStability:
    def test_conflicting_types_across_methods(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/cell.py": """\
                    class Cell:
                        def __init__(self) -> None:
                            self.v = 0

                        def flip(self) -> None:
                            self.v = "oops"
                    """
                },
            )
            == ["KERN002"]
        )

    def test_optional_pattern_is_clean(self, tmp_path):
        """None plus exactly one other type is an Optional field."""
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/cell.py": """\
                    class Cell:
                        def __init__(self) -> None:
                            self.v = None

                        def arm(self) -> None:
                            self.v = 3
                    """
                },
            )
            == []
        )

    def test_cross_module_conflict_through_typed_reference(self, tmp_path):
        """The cross-function case a per-class scan misses: another
        module's function, holding an annotated reference resolved
        through the import graph, re-types the attribute."""
        write_tree(
            tmp_path,
            {
                "repro/sched/cell.py": """\
                class Cell:
                    def __init__(self) -> None:
                        self.v = 0
                """,
                "repro/balance/mut.py": """\
                from repro.sched.cell import Cell


                def clobber(c: Cell) -> None:
                    c.v = 1.5
                """,
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN002"]
        assert "int" in findings[0].message and "float" in findings[0].message

    def test_subclass_retyping_base_attr(self, tmp_path):
        """Type sites merge across the class family."""
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/cell.py": """\
                    class Base:
                        def __init__(self) -> None:
                            self.v = 0


                    class Sub(Base):
                        def flip(self) -> None:
                            self.v = "oops"
                    """
                },
            )
            == ["KERN002"]
        )


class TestKern003Annotations:
    def test_unannotated_entry_point(self, tmp_path):
        findings = []
        write_tree(
            tmp_path,
            {
                "repro/sim/loop.py": """\
                def run(x):
                    return x
                """
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN003"]
        assert "x" in findings[0].message and "return" in findings[0].message

    def test_reachable_helper_flagged_cold_helper_not(self, tmp_path):
        """Only the dispatch-reachable half of the module is held to
        the annotation bar."""
        write_tree(
            tmp_path,
            {
                "repro/sim/loop.py": """\
                def helper(a):
                    return a


                def cold(a):
                    return a


                def run(x: int) -> None:
                    helper(x)
                """
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN003"]
        assert findings[0].function.endswith("helper")

    def test_any_annotation_flagged(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sim/loop.py": """\
                    from typing import Any


                    def run(x: Any) -> None:
                        pass
                    """
                },
            )
            == ["KERN003"]
        )

    def test_reachability_through_typed_attribute_call(self, tmp_path):
        """``self.q.push(...)`` resolves through the __init__ assignment
        ``self.q = Q()`` -- the typed-attribute call edge."""
        write_tree(
            tmp_path,
            {
                "repro/sim/engx.py": """\
                class Q:
                    def __init__(self) -> None:
                        self.items: list = []

                    def push(self, v):
                        self.items.append(v)


                class Eng:
                    def __init__(self) -> None:
                        self.q = Q()

                    def run(self) -> None:
                        self.q.push(1)
                """
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN003"]
        assert findings[0].function.endswith("Q.push")


class TestKern004Variadics:
    def test_vararg_signature_on_entry(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sim/loop.py": """\
                    def run(*args: int) -> None:
                        pass
                    """
                },
            )
            == ["KERN004"]
        )

    def test_splat_call_in_reachable_function(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/loop.py": """\
                def use(a: int, b: int) -> None:
                    pass


                def run() -> None:
                    vals = [1, 2]
                    use(*vals)
                """
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN004"]
        assert "splat" in findings[0].message


class TestKern005Closures:
    def test_lambda_in_entry_point(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sim/loop.py": """\
                    def run() -> None:
                        cb = lambda: 1
                    """
                },
            )
            == ["KERN005"]
        )

    def test_nested_def_in_entry_point(self, tmp_path):
        findings = []
        write_tree(
            tmp_path,
            {
                "repro/sim/loop.py": """\
                def run() -> None:
                    def inner() -> None:
                        pass
                """
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN005"]
        assert "inner" in findings[0].message

    def test_lambda_in_cold_function_is_clean(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/setup.py": """\
                    def configure() -> None:
                        cb = lambda: 1
                    """
                },
            )
            == []
        )

    def test_reachability_through_escaped_callback(self, tmp_path):
        """Storing a bound method in __init__ makes it a dispatch root:
        the event system can invoke it per event."""
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/pump.py": """\
                    class Pump:
                        def __init__(self) -> None:
                            self._cb = self._tick

                        def _tick(self) -> None:
                            x = lambda: 1
                    """
                },
            )
            == ["KERN005"]
        )

    def test_reachability_through_escaping_lambda_body(self, tmp_path):
        """A method only called from inside an escaping lambda still
        runs at dispatch time, so its own closures are hot."""
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/pump.py": """\
                    class Pump:
                        def go(self, cb: object) -> None:
                            pass

                        def fire(self) -> None:
                            y = lambda: 2


                    def arm(p: Pump) -> None:
                        p.go(lambda: p.fire())
                    """
                },
            )
            == ["KERN005"]
        )


class TestKern006ModuleHygiene:
    def test_eval_flagged_regardless_of_reachability(self, tmp_path):
        findings = []
        write_tree(
            tmp_path,
            {
                "repro/sim/dyn.py": """\
                def parse(s: str) -> int:
                    return eval(s)
                """
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN006"]
        assert "eval" in findings[0].message

    def test_metaclass_and_dynamic_hook(self, tmp_path):
        rules = kern_rules(
            tmp_path,
            {
                "repro/sim/dyn.py": """\
                class Meta(type):
                    pass


                class Reg(metaclass=Meta):
                    pass


                class Lazy:
                    def __getattr__(self, name: str) -> int:
                        return 0
                """
            },
        )
        assert rules == ["KERN006", "KERN006"]


class TestKern007LoopAllocations:
    def test_over_budget_allocations_in_loop(self, tmp_path):
        findings = []
        write_tree(
            tmp_path,
            {
                "repro/sim/loop.py": """\
                def run(n: int) -> None:
                    total = 0
                    for i in range(n):
                        a = [i]
                        b = {i: 1}
                        c = {i}
                        total += i
                """
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN007"]
        assert "3 container allocations" in findings[0].message

    def test_within_budget_is_clean(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sim/loop.py": """\
                    def run(n: int) -> None:
                        total = 0
                        for i in range(n):
                            a = [i]
                            b = {i: 1}
                            total += i
                    """
                },
            )
            == []
        )


class TestKern008DynamicDispatch:
    def test_isinstance_and_hasattr_probes(self, tmp_path):
        rules = kern_rules(
            tmp_path,
            {
                "repro/sim/loop.py": """\
                def run(x: object) -> None:
                    if isinstance(x, int):
                        pass
                    if hasattr(x, "tid"):
                        pass
                """
            },
        )
        assert rules == ["KERN008", "KERN008"]

    def test_probe_in_cold_code_is_clean(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/setup.py": """\
                    def configure(x: object) -> bool:
                        return isinstance(x, int)
                    """
                },
            )
            == []
        )


class TestSuppression:
    FIXTURE_LINE = """\
    def run() -> None:
        cb = lambda: 1  # sim-lint: ignore[{ids}]
    """

    def test_kern_id_suppresses(self, tmp_path):
        src = self.FIXTURE_LINE.format(ids="KERN005")
        assert kern_rules(tmp_path, {"repro/sim/loop.py": src}) == []

    def test_mixed_catalogue_ids_suppress(self, tmp_path):
        src = self.FIXTURE_LINE.format(ids="SIM004, KERN005")
        assert kern_rules(tmp_path, {"repro/sim/loop.py": src}) == []

    def test_unrelated_id_does_not_suppress(self, tmp_path):
        src = self.FIXTURE_LINE.format(ids="KERN001")
        assert kern_rules(tmp_path, {"repro/sim/loop.py": src}) == ["KERN005"]

    def test_skip_file(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sim/loop.py": """\
                    # sim-lint: skip-file
                    def run() -> None:
                        cb = lambda: 1
                    """
                },
            )
            == []
        )


class TestBaselineRatchet:
    FIXTURE = {
        "repro/sim/loop.py": """\
        def run() -> None:
            cb = lambda: 1
        """
    }

    def test_fingerprint_is_layout_stable(self):
        a = Finding("src/repro/sched/x.py", 3, 1, "KERN005", "m", "repro.sched.x:f")
        b = Finding("/opt/lib/repro/sched/x.py", 9, 5, "KERN005", "m", "repro.sched.x:f")
        assert fingerprint(a) == fingerprint(b)

    def test_round_trip_and_both_ratchet_directions(self, tmp_path):
        write_tree(tmp_path, self.FIXTURE)
        findings = kernel_paths([tmp_path])
        assert findings
        bl = tmp_path / "baseline.txt"
        write_baseline(findings, bl, "kernel")
        assert "repro.analysis kernel" in bl.read_text()  # header names the tool
        allowed = load_baseline(bl, frozenset(KERN_RULES))

        new, stale = apply_baseline(findings, allowed)
        assert new == [] and stale == []
        # finding fixed but baseline entry kept -> stale fails the run
        new, stale = apply_baseline([], allowed)
        assert new == [] and stale == [fingerprint(findings[0])]
        # one more finding of the same fingerprint -> new fails the run
        new, stale = apply_baseline(findings + findings, allowed)
        assert new == findings and stale == []

    def test_multiplicity_suffix(self, tmp_path):
        f = Finding("repro/sched/x.py", 3, 1, "KERN005", "m", "repro.sched.x:f")
        g = Finding("repro/sched/x.py", 9, 1, "KERN005", "m", "repro.sched.x:f")
        bl = tmp_path / "baseline.txt"
        write_baseline([f, g], bl, "kernel")
        assert f"{fingerprint(f)} x2" in bl.read_text()
        allowed = load_baseline(bl, frozenset(KERN_RULES))
        assert allowed == Counter({fingerprint(f): 2})

    def test_unknown_rule_id_rejected(self, tmp_path):
        bl = tmp_path / "baseline.txt"
        bl.write_text("KERN999 repro/x.py:mod:f\n")
        with pytest.raises(ValueError):
            load_baseline(bl, frozenset(KERN_RULES))


class TestCli:
    FIXTURE = {
        "repro/sim/loop.py": """\
        def run() -> None:
            cb = lambda: 1
        """,
        "repro/sim/dyn.py": """\
        def parse(s: str) -> int:
            return eval(s)
        """,
    }

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_tree(
            tmp_path, {"repro/sim/ok.py": "def run(x: int) -> int:\n    return x + 1\n"}
        )
        assert kernel_main([str(tmp_path), "--no-baseline", "--no-allowlist"]) == 0

    def test_exit_one_and_report_on_findings(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        assert kernel_main([str(tmp_path), "--no-baseline", "--no-allowlist"]) == 1
        out = capsys.readouterr().out
        assert "KERN005" in out and "KERN006" in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert kernel_main([str(tmp_path / "nope")]) == 2

    def test_format_json(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        rc = kernel_main(
            [str(tmp_path), "--no-baseline", "--no-allowlist", "--format", "json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert sorted(d["rule"] for d in data) == ["KERN005", "KERN006"]
        assert all("function" in d for d in data)

    def test_select_filters_rules(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        assert (
            kernel_main(
                [str(tmp_path), "--no-baseline", "--no-allowlist", "--select", "KERN006"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "KERN006" in out and "KERN005" not in out

    def test_unknown_select_rejected(self, tmp_path, capsys):
        assert kernel_main([str(tmp_path), "--select", "KERN999"]) == 2

    def test_write_baseline_then_ratchet(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        bl = tmp_path / "baseline.txt"
        assert (
            kernel_main(
                [str(tmp_path), "--no-allowlist", "--baseline", str(bl), "--write-baseline"]
            )
            == 0
        )
        # baselined findings no longer fail the run ...
        assert kernel_main([str(tmp_path), "--no-allowlist", "--baseline", str(bl)]) == 0
        capsys.readouterr()
        # ... but fixing one makes its entry stale, which fails again
        (tmp_path / "repro/sim/dyn.py").write_text(
            "def parse(s: str) -> int:\n    return int(s)\n"
        )
        assert kernel_main([str(tmp_path), "--no-allowlist", "--baseline", str(bl)]) == 1
        assert "stale baseline entry" in capsys.readouterr().err

    #: FIXTURE plus a second KERN006 site: a 3-entry baseline
    THREE = dict(
        FIXTURE,
        **{"repro/sim/dyn2.py": "def load(s: str) -> int:\n    return eval(s)\n"},
    )

    def _three_entry_baseline(self, tmp_path):
        write_tree(tmp_path, self.THREE)
        bl = tmp_path / "baseline.txt"
        argv = [str(tmp_path), "--no-allowlist", "--baseline", str(bl)]
        assert kernel_main(argv + ["--write-baseline"]) == 0
        assert len(load_baseline(bl, frozenset(KERN_RULES))) == 3
        return bl, argv

    def test_select_ignores_other_rules_baseline_entries(self, tmp_path, capsys):
        bl, argv = self._three_entry_baseline(tmp_path)
        capsys.readouterr()
        assert kernel_main(argv + ["--select", "KERN005"]) == 0
        assert "0 stale baseline entries" in capsys.readouterr().err
        # the selected rule still ratchets both ways
        (tmp_path / "repro/sim/loop.py").write_text("def run() -> None:\n    pass\n")
        assert kernel_main(argv + ["--select", "KERN005"]) == 1
        assert "stale baseline entry" in capsys.readouterr().err

    def test_write_baseline_with_select_keeps_other_rules(self, tmp_path, capsys):
        bl, argv = self._three_entry_baseline(tmp_path)
        # fix the KERN005 site, then rewrite only KERN005's entries
        (tmp_path / "repro/sim/loop.py").write_text("def run() -> None:\n    pass\n")
        assert kernel_main(argv + ["--select", "KERN005", "--write-baseline"]) == 0
        allowed = load_baseline(bl, frozenset(KERN_RULES))
        assert sorted(fp.split()[0] for fp in allowed) == ["KERN006", "KERN006"]
        # the untouched KERN006 entries still cover their findings
        assert kernel_main(argv) == 0


class TestCatalogue:
    def test_rule_ids_complete(self):
        assert sorted(KERN_RULES) == [f"KERN00{i}" for i in range(1, 9)]

    def test_rules_command_prints_kern_catalogue(self, capsys):
        from repro.analysis.__main__ import main as analysis_main

        assert analysis_main(["rules"]) == 0
        out = capsys.readouterr().out
        for rid in KERN_RULES:
            assert rid in out
        assert "SIM001" in out and "FLOW001" in out

    def test_kernel_subcommand_wired(self, tmp_path, capsys):
        from repro.analysis.__main__ import main as analysis_main

        write_tree(
            tmp_path, {"repro/sim/ok.py": "def run(x: int) -> int:\n    return x\n"}
        )
        assert analysis_main(["kernel", str(tmp_path), "--no-baseline"]) == 0


class TestRepoIsClean:
    def test_whole_tree_ratchets_to_zero(self):
        """The acceptance check: shipped tree + shipped baseline = clean."""
        findings = kernel_paths(
            [REPO / "src" / "repro"],
            suppress.load_allowlist(DEFAULT_ALLOWLIST, frozenset(KERN_RULES)),
        )
        allowed = load_baseline(DEFAULT_BASELINE, frozenset(KERN_RULES))
        new, stale = apply_baseline(findings, allowed)
        assert new == [], "\n".join(f.format() for f in new)
        assert stale == []

    def test_shipped_allowlist_is_zero_entry(self):
        entries = suppress.load_allowlist(DEFAULT_ALLOWLIST, frozenset(KERN_RULES))
        assert entries == []

    def test_shipped_baseline_is_empty(self):
        """The Event-payload refactor retired the last committed debt
        (the generation-capture closures in the core dispatch path), so
        the strict ratchet is at zero: any new finding must be fixed,
        not baselined."""
        allowed = load_baseline(DEFAULT_BASELINE, frozenset(KERN_RULES))
        assert not allowed

    def test_cli_default_run_is_green(self, capsys):
        assert kernel_main([str(REPO / "src" / "repro")]) == 0
