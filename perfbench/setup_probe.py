"""Time one set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py artifact|serve SCRATCH_DIR

``artifact``: import the scenario functions and create an empty
result store.  ``serve``: also boot the daemon (process workers) and
wait until ``/v1/healthz`` answers.  The daemon is drained after the
clock stops.  Prints the wall time and the host's speed, probed just
before and just after the timed region (see ``e2e/hostspeed.py``).  Run
by ``perfbench/run.py``; not a benchmark by itself.
"""

import sys
import time

from e2e.hostspeed import REF_S, probe_s

probe_s()  # warm the probe loop up first
before = probe_s()
start = time.monotonic()

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def report() -> None:
    wall = time.monotonic() - start
    print(f"{wall:.6f} {REF_S / ((before + probe_s()) / 2):.6f}")


def main() -> int:
    kind, scratch = sys.argv[1], Path(sys.argv[2])
    if kind == "artifact":
        from repro.harness import scenarios  # noqa: F401
        from repro.store import ResultStore

        store = ResultStore(scratch / "store")
        store.root.mkdir(parents=True)
        report()
        return 0
    if kind == "serve":
        from e2e.servemix import boot_daemon

        server, client = boot_daemon(scratch / "store")
        try:
            client.healthz()
            report()
        finally:
            server.drain()
        return 0
    print(f"unknown probe {kind!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
