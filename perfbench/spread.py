"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fig3-yield --seeds 1 2 3 4 5

For each end-to-end metric prints the median over the runs and the
distance between the first and third quartile as a share of the
median -- the steadiness figure BENCHMARK.json's bounds are held to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from e2e.stats import quartile_spread

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in out["metrics"].items()}
        print(f"seed {seed}: correct={out['correct']} failed={out['failed']}/"
              f"{out['attempted']} " + " ".join(f"{k}={v:.4g}" for k, v in row.items()),
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for k, vs in values.items():
        bound = bounds.get(k)
        note = f" (bound {bound}, a third {bound / 3:.3f})" if bound else ""
        print(f"{k}: median {statistics.median(vs):.4g}, spread "
              f"{quartile_spread(vs):.3f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
