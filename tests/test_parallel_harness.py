"""Serial-vs-parallel equivalence of the experiment harness.

The process-pool fan-out (:mod:`repro.harness.parallel`) must be a
pure performance feature: every result it returns has to be
bit-identical to what the default serial path produces, in the same
order.  These tests pin that down with canonical JSON byte comparison
across machines and balancer modes, plus the pickling contract that
makes the fan-out possible.
"""

import json
import pickle

import pytest

from repro.apps.workloads import AppSpec, ep_app
from repro.harness.experiment import repeat_run, run_app
from repro.harness.parallel import (
    MACHINE_PRESETS,
    RunSpec,
    map_specs,
    register_machine,
    resolve_machine,
    run_spec,
    starmap_kwargs,
)
from repro.harness.sweeps import sweep
from repro.topology import presets

#: small-but-real workload: 6 threads on 4 cores, 0.1 simulated seconds
SPEC = AppSpec(bench="ep.C", n_threads=6, wait="yield", total_compute_us=100_000)


def ep_factory(system):
    """Module-level factory: picklable by reference."""
    return ep_app(system, n_threads=6, total_compute_us=100_000)


def canonical(result) -> str:
    """Byte-exact form of an AppRunResult."""
    return json.dumps(result.as_dict(), sort_keys=True)


def grid_runner(cores, balancer):
    return run_app(
        presets.uniform(8), ep_factory, balancer=balancer, cores=cores, seed=0
    ).elapsed_us


class TestAppSpec:
    def test_callable_as_app_factory(self):
        res = run_app(presets.uniform(4), SPEC, balancer="pinned", cores=4)
        assert res.app_name == "ep.C"
        assert res.n_threads == 6

    def test_matches_equivalent_closure(self):
        a = run_app(presets.uniform(4), SPEC, balancer="speed", cores=4, seed=2)
        b = run_app(presets.uniform(4), ep_factory, balancer="speed", cores=4, seed=2)
        assert canonical(a) == canonical(b)

    def test_pickles(self):
        assert pickle.loads(pickle.dumps(SPEC)) == SPEC

    def test_barrier_period_selects_modified_ep(self, uniform4):
        app = AppSpec(total_compute_us=50_000, barrier_period_us=10_000,
                      n_threads=4).build(uniform4)
        assert app.name == "ep.mod"

    def test_unknown_wait_mode_rejected(self, uniform4):
        with pytest.raises(ValueError, match="wait mode"):
            AppSpec(wait="naptime").build(uniform4)


class TestRunSpec:
    def test_make_normalizes(self):
        spec = RunSpec.make("tigerton", SPEC, cores=[2, 0, 1], seed=3,
                            limit_us=5_000_000)
        assert spec.cores == (2, 0, 1)
        assert spec.params == (("limit_us", 5_000_000),)

    def test_resolves_preset_names(self):
        assert resolve_machine("tigerton") is MACHINE_PRESETS["tigerton"]
        with pytest.raises(ValueError, match="unknown machine preset"):
            resolve_machine("cray1")

    def test_register_machine(self):
        register_machine("uniform8", uniform8_machine)
        try:
            res = run_spec(RunSpec.make("uniform8", SPEC, balancer="pinned", cores=4))
            assert res.elapsed_us > 0
        finally:
            del MACHINE_PRESETS["uniform8"]

    def test_run_spec_matches_run_app(self):
        spec = RunSpec.make("barcelona", SPEC, balancer="load", cores=4, seed=5)
        direct = run_app(presets.barcelona, SPEC, balancer="load", cores=4, seed=5)
        assert canonical(run_spec(spec)) == canonical(direct)

    def test_pickles_with_preset_name_and_spec(self):
        spec = RunSpec.make("tigerton", SPEC, cores=(0, 1), seed=1)
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize("engine", ["batched", "batchd", "Heap"])
    def test_make_rejects_unknown_engine(self, engine):
        # rejected when the spec is built, not later inside a worker
        with pytest.raises(ValueError, match="unknown engine backend"):
            RunSpec.make("tigerton", SPEC, engine=engine)


def uniform8_machine():
    return presets.uniform(8)


class TestMapSpecs:
    def specs(self, n=3):
        return [RunSpec.make("tigerton", SPEC, balancer="speed", cores=4, seed=s)
                for s in range(n)]

    def test_serial_order_and_progress(self):
        seen = []
        results = map_specs(self.specs(), workers=1,
                            progress=lambda s, r: seen.append(s.seed))
        assert [r.seed for r in results] == [0, 1, 2]
        assert seen == [0, 1, 2]

    def test_parallel_identical_to_serial(self):
        serial = map_specs(self.specs(), workers=1)
        parallel = map_specs(self.specs(), workers=2)
        assert [canonical(r) for r in serial] == [canonical(r) for r in parallel]

    def test_parallel_progress_in_input_order(self):
        seen = []
        map_specs(self.specs(), workers=2,
                  progress=lambda s, r: seen.append(s.seed))
        assert seen == [0, 1, 2]

    def test_unpicklable_spec_rejected_clearly(self):
        bad = [RunSpec.make("tigerton", lambda s: ep_factory(s), seed=0),
               RunSpec.make("tigerton", SPEC, seed=1)]
        with pytest.raises(ValueError, match="does not pickle.*workers=1"):
            map_specs(bad, workers=2)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            map_specs(self.specs(), workers=0)


class TestRepeatRunEquivalence:
    """The satellite: byte-identical results on two machines x three modes."""

    @pytest.mark.parametrize("machine_name", ["tigerton", "barcelona"])
    @pytest.mark.parametrize("balancer", ["speed", "load", "pinned"])
    def test_workers4_bit_identical_to_serial(self, machine_name, balancer):
        machine = MACHINE_PRESETS[machine_name]
        serial = repeat_run(machine, SPEC, balancer=balancer, cores=4,
                            seeds=range(2), workers=1)
        parallel = repeat_run(machine, SPEC, balancer=balancer, cores=4,
                              seeds=range(2), workers=4)
        assert [canonical(r) for r in serial.runs] == \
               [canonical(r) for r in parallel.runs]

    def test_extra_kwargs_cross_the_pool(self):
        serial = repeat_run(presets.tigerton, SPEC, balancer="speed", cores=4,
                            seeds=range(2), workers=1, limit_us=10_000_000)
        parallel = repeat_run(presets.tigerton, SPEC, balancer="speed", cores=4,
                              seeds=range(2), workers=2, limit_us=10_000_000)
        assert [canonical(r) for r in serial.runs] == \
               [canonical(r) for r in parallel.runs]

    def test_module_level_factory_works_in_workers(self):
        serial = repeat_run(presets.tigerton, ep_factory, balancer="load",
                            cores=4, seeds=[3, 4], workers=1)
        parallel = repeat_run(presets.tigerton, ep_factory, balancer="load",
                              cores=4, seeds=[3, 4], workers=2)
        assert [canonical(r) for r in serial.runs] == \
               [canonical(r) for r in parallel.runs]


class TestSweepEquivalence:
    GRID = {"cores": [2, 4], "balancer": ["speed", "pinned"]}

    def test_parallel_sweep_identical_to_serial(self):
        serial = sweep(self.GRID, grid_runner, workers=1)
        parallel = sweep(self.GRID, grid_runner, workers=2)
        assert serial.param_names == parallel.param_names
        assert list(serial.points) == list(parallel.points)  # grid order too
        assert serial.points == parallel.points

    def test_parallel_progress_in_grid_order(self):
        serial_seen, parallel_seen = [], []
        sweep(self.GRID, grid_runner, workers=1,
              progress=lambda a, o: serial_seen.append((a["cores"], a["balancer"], o)))
        sweep(self.GRID, grid_runner, workers=2,
              progress=lambda a, o: parallel_seen.append((a["cores"], a["balancer"], o)))
        assert serial_seen == parallel_seen

    def test_unpicklable_runner_rejected_clearly(self):
        with pytest.raises(ValueError, match="does not pickle"):
            sweep({"x": [1, 2]}, lambda x: x, workers=2)

    def test_starmap_kwargs_serial_path(self):
        assert starmap_kwargs(grid_runner,
                              [{"cores": 2, "balancer": "pinned"}],
                              workers=1)[0] > 0
