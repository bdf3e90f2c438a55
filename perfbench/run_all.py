"""Run every workload untraced and traced, check outputs, print one summary.

    python3 perfbench/run_all.py [--seed 1] [--seconds N]

Each run is its own process, started after the previous one has ended, as
``run.py`` is run by hand.  The summary gives, per workload, every end-to-end
metric with its unit and sample count, fail_ratio, the tracing overhead (the
traced run's unit p50 next to the untraced run's), and the measured layer
share next to the share quoted when the workload was chosen.  The exit code
is non-zero if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# layer share quoted for each workload when it was chosen
QUOTED_SHARES = {
    "mixed-gauss3d": ("fast_apply.share", 0.97),
    "separable-torsional6d": ("potential_approx.share", 0.75),
    "oracle-reference": ("krylov_propagator.expm_share", 0.32),
    "rederr-cube3d": ("index_set.share", 0.80),
}


def run_one(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    report = None
    for line in proc.stdout.splitlines():
        if line.startswith("# report "):
            report = json.loads(line[len("# report "):])
    if report is None:
        sys.stderr.write(proc.stderr)
    return proc.returncode, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = p.parse_args(argv)
    failures = 0
    for w in SPEC["workloads"]:
        name = w["name"]
        code, plain = run_one(name, args.seed, args.seconds, 0)
        tcode, traced = run_one(name, args.seed, args.seconds, 1)
        failures += (code != 0) + (tcode != 0)
        print(f"== {name} (exit {code}, traced exit {tcode})")
        if plain is None or traced is None:
            continue
        for m in SPEC["end_to_end"]:
            value, unit, samples = plain["metrics"][m["name"]]
            print(f"  {m['name']:16s} {value:14.6g} {unit:5s} n={samples}")
        extra = plain["extra"]
        print(f"  {'fail_ratio':16s} {extra['fail_ratio']:14.6g}       "
              f"({plain['failed']}/{plain['attempted']})")
        if "norm_drift" in extra:
            print(f"  {'norm_drift':16s} {extra['norm_drift']:14.6g}")
        tm = traced["metrics"]
        print(f"  tracing overhead: traced unit p50 "
              f"{tm['trace.traced_unit_ms_p50'][0]:.6g} ms, untraced in the "
              f"same run {tm['trace.untraced_unit_ms_p50'][0]:.6g} ms "
              f"(ratio {tm['trace.overhead_ratio'][0]:.3f}), untraced run "
              f"{plain['metrics']['step_ms_p50'][0]:.6g} ms")
        shares = ", ".join(
            f"{key.split('.')[0]} {tm[key][0]:.3f}" for key in tm
            if key.endswith(".share") and tm[key][0] >= 0.005)
        metric, quoted = QUOTED_SHARES[name]
        print(f"  layer shares of unit time: {shares}")
        print(f"  {metric} {tm[metric][0]:.3f} (quoted {quoted:.2f})")
        for msg in plain["messages"] + traced["messages"]:
            print(f"  FAILED: {msg}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
