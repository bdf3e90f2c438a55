"""Run one workload of the hprop propagation benchmark.

    python3 perfbench/run.py --workload mixed-gauss3d --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it are a readable report: every metric with its unit and sample
count, the correctness checks, and the machine facts.  Span traces and full
reports go to ``perfbench/out/``.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the cores this process may use.

    Must run before numpy is imported; the settings land in the report.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = min(int(os.environ.get(var, nproc)), nproc)
        except ValueError:
            want = nproc
        os.environ[var] = str(max(want, 1))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def metric_names(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def finite_or_none(value):
    """JSON has no NaN; a metric a failed run could not measure is null."""
    return value if math.isfinite(value) else None


def report_lines(result: dict) -> list[str]:
    lines = [f"# workload {result['facts']['workload']} "
             f"seed {result['facts']['seed']}"]
    for name, (value, unit, samples) in result["metrics"].items():
        lines.append(f"{name:44s} {value!r:>24} {unit:6s} n={samples}")
    for key, value in result["extra"].items():
        lines.append(f"{key:44s} {value!r:>24}")
    lines.append(f"checks: {result['attempted'] - result['failed']}/"
                 f"{result['attempted']} passed")
    lines += [f"FAILED: {msg}" for msg in result["messages"]]
    lines.append("# facts " + json.dumps(result["facts"]))
    lines.append("# report " + json.dumps(result, default=str))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hprop" / "__init__.py").is_file():
        print(f"error: no hprop sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    import measure

    if args.workload not in measure.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(measure.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = measure.WORKLOADS[args.workload]
    if args.trace:
        result = measure.measure_traced(wl, args.seed, OUT)
    else:
        result = measure.measure(wl, args.seed, args.seconds, OUT)
    wanted = metric_names(args.trace)
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    for line in report_lines(result):
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": finite_or_none(result["metrics"][n][0]),
                        "unit": result["metrics"][n][1]} for n in wanted},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
