"""Checks on the benchmark itself, run with ``python3 -m pytest perfbench``.

* computed counts repeat exactly across two traced runs and match closed
  forms (set sizes, matvecs per step, interpolation grids, sweeps);
* self time subtracts exactly the time child spans cover;
* hooks patch the binding each caller looks up, and unpatch cleanly;
* BENCHMARK.json keeps to its contract and names the metrics produced;
* a directory holding only the benchmark fails without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run as bench  # noqa: E402  (perfbench/ is on sys.path under pytest)

bench.cap_threads()
sys.path.insert(0, str(bench.SRC))

import numpy as np  # noqa: E402

import hprop  # noqa: E402
import measure  # noqa: E402
import tracer as tr  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTED = ("fast_apply.sweeps_per_apply", "krylov_propagator.matvecs",
           "potential_approx.grid_points", "index_set.members",
           "fast_apply.apply_calls")
SET_SIZES = {"mixed-gauss3d": 417, "separable-torsional6d": 9908,
             "oracle-reference": 160}
# single-axis sweeps are the per-axis maximum degree (8 on every axis); the
# Gaussian well adds 1440 mixed-term sweeps
SWEEPS = {"mixed-gauss3d": 1440 + 3 * 8, "separable-torsional6d": 6 * 8,
          "oracle-reference": 0, "rederr-cube3d": 3 * 8}


def small(name: str):
    wl = measure.WORKLOADS[name]
    if isinstance(wl, measure.Propagation):
        return dataclasses.replace(wl, segment_steps=3, trace_rounds=1)
    return dataclasses.replace(wl, trace_rounds=1)


def brute_hyperbolic_size(dim: int, bound: int) -> int:
    k = np.indices((bound + 1,) * dim).reshape(dim, -1)
    return int(np.count_nonzero(np.prod(k + 1, axis=0) <= bound + 1))


@pytest.mark.parametrize("name", sorted(measure.WORKLOADS))
def test_counts_repeat_exactly_and_match_closed_forms(name, tmp_path):
    wl = small(name)
    first = measure.measure_traced(wl, 1, tmp_path)
    second = measure.measure_traced(wl, 2, tmp_path)
    assert first["correct"] and second["correct"], \
        (first["messages"], second["messages"])
    got = {k: first["metrics"][k][0] for k in COUNTED}
    assert got == {k: second["metrics"][k][0] for k in COUNTED}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer <= set(first["metrics"])
    assert got["fast_apply.sweeps_per_apply"] == SWEEPS[name]
    if name == "rederr-cube3d":
        h60, h80 = (brute_hyperbolic_size(3, k) for k in (60, 80))
        # one set-up (the K = 60 cross) and one traced sweep
        assert got["index_set.members"] == h60 + h60 + h80 + 61 ** 3 + 81 ** 3
        assert got["krylov_propagator.matvecs"] == 0
        assert got["fast_apply.apply_calls"] == 1 + 4
        assert got["potential_approx.grid_points"] == 3 * 9 ** 3
        return
    steps = wl.segment_steps * wl.trace_rounds
    per_matvec = 4 if wl.scheme == "gl2" else 1
    interpolations = 1 + steps * (2 if wl.scheme == "gl2" else 1)
    assert got["index_set.members"] == SET_SIZES[name]
    assert first["metrics"]["krylov_propagator.breakdowns"][0] == 0
    assert got["krylov_propagator.matvecs"] == steps * wl.krylov * per_matvec
    assert got["potential_approx.grid_points"] == \
        interpolations * (wl.degree + 1) ** wl.dim
    assert got["fast_apply.apply_calls"] == \
        (0 if wl.oracle else 1 + steps * wl.krylov)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    wl = dataclasses.replace(measure.WORKLOADS["oracle-reference"],
                             segment_steps=50)
    result = measure.measure(wl, 3, 0.0, tmp_path)
    assert result["correct"], result["messages"]
    for m in SPEC["end_to_end"]:
        value, unit, samples = result["metrics"][m["name"]]
        assert value > 0 and unit == m["unit"] and samples >= 1
    assert result["metrics"]["step_ms_p90"][2] >= measure.MIN_STEPS


def test_self_time_subtracts_child_spans():
    spans = [["a.outer", 0.0, 10.0, -1], ["b.inner", 1.0, 4.0, 0],
             ["a.inner", 5.0, 6.0, 0], ["c.leaf", 2.0, 3.0, 1]]
    tab = tr.SpanTable(spans)
    assert tab.self_time == [6.0, 2.0, 1.0, 1.0]
    assert tab.layer_self("a") == 7.0
    assert tab.inside(["b.inner"]) == [False, True, False, True]


def test_hooks_patch_the_binding_each_caller_uses():
    tracer = tr.Tracer("test")
    original = hprop.potential_approx.interpolate
    tracer.install(measure.layer_hooks())
    try:
        assert tracer.missing == []
        assert hprop.error_lab.interpolate is not original
        assert hprop.error_lab.interpolate is \
            hprop.potential_approx.interpolate
        assert hprop.krylov_propagator.lanczos.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert hprop.error_lab.interpolate is original
    assert not hasattr(hprop.krylov_propagator.lanczos, "__wrapped__")


def test_benchmark_json_keeps_to_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(measure.WORKLOADS)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[k]]
    assert all(name_re.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_run_fails_without_result_when_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-gauss3d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
