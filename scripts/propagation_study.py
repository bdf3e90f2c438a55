"""Endpoint error of Magnus-Krylov stepping versus step size.

Runs the driven anharmonic benchmark at K=40 with the order-2 midpoint
scheme over h = 1/10 .. 1/160, then the order-4 two-stage Gauss scheme at
h = 1/10.  Each run rebuilds the assembled-matrix reference, which doubles
its gl2 step count until it is converged to 1e-12 (about 2 s at the
defaults).
"""

import sys
from pathlib import Path

from hprop.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"


def run() -> int:
    RESULTS.mkdir(exist_ok=True)
    code = main(["propagate", "--scheme", "midpoint",
                 "--out", str(RESULTS / "propagate_midpoint.csv"),
                 *sys.argv[1:]])
    if code:
        return code
    return main(["propagate", "--scheme", "gl2", "--h", "1/10",
                 "--out", str(RESULTS / "propagate_gl2.csv"),
                 *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(run())
