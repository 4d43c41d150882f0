"""Regenerate perfbench/reference.json from the program as it is now.

    python3 perfbench/make_reference.py

The reference holds, for every artifact seed in the pool, each cell's
run digest and event count, and for every served spec seed its run
digest.  Runs check their outputs against it, so regenerate it only
when a change is meant to alter simulation results, and say so.
"""

from __future__ import annotations

import json
import sys

from e2e import common


def main() -> int:
    common.require_program()
    from repro.analysis.sanitizer import run_digest
    from repro.harness import parallel
    from repro.harness.parallel import run_spec

    from e2e import artifacts, servemix
    from e2e.trace import Tracer

    ref: dict = {}
    tracer = Tracer()
    tracer.count_runs(parallel)
    for name, art in artifacts.ARTIFACTS.items():
        table: dict = {}
        # a run's worth of seeds at a time keeps each store as small as a run's
        for first in range(0, artifacts.SEED_POOL, art.seeds_per_run):
            seeds = list(range(first, min(first + art.seeds_per_run, artifacts.SEED_POOL)))
            regen = artifacts.regenerate(art, seeds, tracer)
            for (label, n_cores, seed), (digest, row) in regen.cells.items():
                table.setdefault(label, {}).setdefault(str(n_cores), {})[str(seed)] = [
                    digest, row["sim.events"]
                ]
            print(f"{name}: seeds {seeds} in {regen.wall_s:.1f} s", flush=True)
        ref[name] = table
    tracer.unpatch()
    ref["serve-mix"] = [
        run_digest(result=run_spec(servemix.make_spec(s)))[:16]
        for s in range(servemix.SEED_POOL)
    ]
    print(f"serve-mix: {servemix.SEED_POOL} specs", flush=True)
    common.REFERENCE.write_text(json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")
    common.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
