"""``python -m repro.analysis lint|flow|kernel|rules`` (see :mod:`repro.analysis.driver`).

The runtime invariant checker is reached through the main CLI
(``repro check --invariants``) because it needs a simulation to run.
"""

import sys

from repro.analysis.driver import main

if __name__ == "__main__":
    sys.exit(main())
