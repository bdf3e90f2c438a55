"""Wall-time sweep of the fast apply against the dense oracle.

Extends the default bench grid up to K=160 so the log-log cost slope is
visible; the dense side is skipped automatically wherever the set size
exceeds galerkin_oracle.DENSE_CAP.  Extra command line arguments are passed
through and may override any default, e.g. ``--dims 3 --kmax 10,20``.
"""

import sys
from pathlib import Path

from hprop.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"


def run() -> int:
    RESULTS.mkdir(exist_ok=True)
    return main(["bench", "--kmax", "20,40,60,80,160",
                 "--out", str(RESULTS / "bench_scaling.csv"),
                 *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(run())
