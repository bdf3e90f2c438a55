"""Workloads, timing loops, correctness gates and metrics of the benchmark.

Every workload is a closed loop with one caller: each Magnus step (or each
``rederr`` sweep) starts when the one before it has returned.  Layers are
only ever called through hprop's public functions, so the benchmark keeps
measuring the same work while the program's internals change.
"""

from __future__ import annotations

import csv
import math
import os
import platform
import resource
import statistics
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import hprop
import hprop.cli
from hprop import error_lab, fast_apply, galerkin_oracle, hermite_basis, \
    index_set, krylov_propagator, potential_approx

import tracer as tr

# Before each unit group, cold set-ups repeat until 0.25 s is spent (at
# most 10); setup_s is the median of all of them.  Spreading them over the
# run samples the machine's speed the way the units do, and the first few
# set-ups of a process, slower while the allocator grows its heap, end up
# as a small minority.
SETUP_SLICE_S = 0.25
SETUP_MAX_PER_GROUP = 10
MIN_STEPS = 100         # p90 then has at least ten samples beyond it
MIN_SWEEPS = 3
DECAY_BETA = 3
GATE_TOL = 1e-10        # full-cube identity, as in ``hprop verify``
INTERIOR_TOL = 1e-13    # interior reduction error, as in tier-1
DRIFT_CEILING = 1e-6    # sanity ceiling on |norm(y(T)) - norm(y(0))|


def gaussian_well(pts: np.ndarray, t: float) -> np.ndarray:
    """Driven non-separable well -(1 + sin(t)^2 / 2) exp(-|x|^2 / 50)."""
    return -(1.0 + 0.5 * math.sin(t) ** 2) * np.exp(
        -(pts * pts).sum(axis=-1) / 50.0)


@dataclass(frozen=True)
class Propagation:
    """Magnus-Krylov propagation of a seeded state on a hyperbolic cross.

    One unit is one Magnus step; one study is ``segment_steps`` steps from
    t = 0, always restarted from the seeded initial state.
    """

    name: str
    dim: int
    bound: int
    potential: Callable[[], object]
    degree: int
    scheme: str
    krylov: int
    step: float
    segment_steps: int
    oracle: bool
    gate_bound: int
    trace_rounds: int

    def hamiltonian(self, iset, spec):
        cls = error_lab.OracleHamiltonian if self.oracle \
            else error_lab.FastHamiltonian
        return cls(iset, spec, self.degree)


@dataclass(frozen=True)
class Rederr:
    """``hprop rederr`` sweep run in-process; one unit is one whole sweep."""

    name: str
    dim: int
    kmax: tuple[int, ...]
    degree: int
    potential: str
    beta: int           # the CLI's default --beta for its test vectors
    gate_bound: int
    trace_rounds: int

    def argv(self, out: Path) -> list[str]:
        return ["rederr", "--dims", str(self.dim), "--kmax",
                ",".join(str(k) for k in self.kmax), "--out", str(out)]


WORKLOADS = {
    "mixed-gauss3d": Propagation(
        "mixed-gauss3d", 3, 40,
        lambda: potential_approx.custom_potential(
            gaussian_well, 3, 16.0, kind="gauss-well"),
        degree=8, scheme="midpoint", krylov=7, step=1 / 20,
        segment_steps=20, oracle=False, gate_bound=6, trace_rounds=2),
    "separable-torsional6d": Propagation(
        "separable-torsional6d", 6, 80,
        lambda: potential_approx.torsional_minus_harmonic(6),
        degree=8, scheme="midpoint", krylov=7, step=1 / 20,
        segment_steps=20, oracle=False, gate_bound=2, trace_rounds=2),
    "oracle-reference": Propagation(
        "oracle-reference", 2, 40,
        lambda: potential_approx.henon_heiles_perturbed(2),
        degree=3, scheme="gl2", krylov=20, step=1 / 10_000,
        segment_steps=100, oracle=True, gate_bound=8, trace_rounds=3),
    "rederr-cube3d": Rederr(
        "rederr-cube3d", 3, (60, 80), degree=8, potential="torsional",
        beta=5, gate_bound=6, trace_rounds=1),
}


# -- shared plumbing ---------------------------------------------------------


def cold_caches() -> None:
    """Empty the program's process-wide caches, as a fresh CLI process has."""
    cache = getattr(galerkin_oracle, "_FULL_CACHE", None)
    if cache is not None:
        cache.clear()
    rule = hermite_basis.gauss_hermite_rule
    while not hasattr(rule, "cache_clear") and hasattr(rule, "__wrapped__"):
        rule = rule.__wrapped__
    if hasattr(rule, "cache_clear"):
        rule.cache_clear()


def initial_state(iset, seed: int) -> np.ndarray:
    """Normalized beta = 3 decay profile with seeded unit-modulus phases."""
    base = np.prod(np.maximum(iset.indices, 1).astype(np.float64)
                   ** (-float(DECAY_BETA)), axis=1)
    base /= np.linalg.norm(base)
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, iset.size)
    return base * np.exp(1j * phases)


def percentile(values, q: float) -> float:
    if not values:
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Correctness checks and failed units, counted for fail_ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def units(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


# -- propagation workloads ---------------------------------------------------


class PropagationRun:
    """State of one propagation workload inside one process."""

    def __init__(self, wl: Propagation, seed: int):
        self.wl = wl
        self.seed = seed
        self.magnus = krylov_propagator.MagnusScheme.from_name(wl.scheme)
        self.iset = self.ham = self.y0 = None

    def setup(self) -> float:
        """Cold set-up up to the first operator application; returns seconds.

        Covers the index set, the Hamiltonian with its first surrogate (and
        the oracle's term matrices), and the first apply, which builds the
        neighbor tables.  The seeded input vector is made outside the clock.
        """
        wl = self.wl
        cold_caches()
        t0 = perf_counter()
        iset = index_set.build_hyperbolic(wl.dim, wl.bound)
        t1 = perf_counter()
        y0 = initial_state(iset, self.seed)
        t2 = perf_counter()
        ham = wl.hamiltonian(iset, wl.potential())
        ham.matvec_at(0.5 * wl.step)(y0)
        t3 = perf_counter()
        self.iset, self.ham, self.y0 = iset, ham, y0
        return (t1 - t0) + (t3 - t2)

    def set_sizes(self) -> list[int]:
        return [self.iset.size]

    def segment(self, checks: Checks) -> tuple[list[float], float, float]:
        """One study: segment_steps Magnus steps from t = 0.

        Returns (step latencies in ms, wall seconds, norm drift).
        """
        wl = self.wl
        stamps = [perf_counter()]

        def tick(k, t, y):
            stamps.append(perf_counter())

        try:
            y = krylov_propagator.propagate_magnus(
                self.magnus, self.ham.matvec_at, self.y0, 0.0,
                wl.segment_steps * wl.step, wl.segment_steps, wl.krylov,
                callback=tick)
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            checks.units(wl.segment_steps, wl.segment_steps)
            checks.messages.append(f"segment failed: {exc}")
            return [], perf_counter() - stamps[0], math.nan
        checks.units(wl.segment_steps)
        lat = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
        drift = abs(float(np.linalg.norm(y)) - float(np.linalg.norm(self.y0)))
        checks.check(bool(np.all(np.isfinite(y))), "endpoint not finite")
        checks.check(drift <= DRIFT_CEILING,
                     f"norm drift {drift:.3e} above {DRIFT_CEILING:.0e}")
        return lat, stamps[-1] - stamps[0], drift

    def gate(self, checks: Checks) -> dict:
        """The paper's anchor on a small full cube, with this surrogate."""
        wl = self.wl
        spec = wl.potential()
        approx = potential_approx.interpolate(
            potential_approx.smooth_remainder(spec), wl.degree,
            time=0.5 * wl.step)
        out = {"nterms": approx.nterms}
        out.update(full_cube_check(wl.dim, wl.gate_bound, approx, checks,
                                   self.seed, spec.harmonic_part != 0.0))
        return out


def full_cube_check(dim: int, bound: int, approx, checks: Checks, seed: int,
                    ladder: bool) -> dict:
    """Fast apply equals the order-K quadrature Galerkin matrix on a cube."""
    full = index_set.build_full(dim, bound)
    v = np.random.default_rng([seed, dim, bound]).standard_normal(full.size)
    rule = hermite_basis.gauss_hermite_rule(bound)
    with warnings.catch_warnings():
        # degree > K/2 only thins the quadrature margin; the identity holds
        warnings.simplefilter("ignore", UserWarning)
        dense = galerkin_oracle.assemble_quad_galerkin(full, approx, rule)
        fast = fast_apply.fast_algorithm(full, approx,
                                         index_set.CoeffVector(full, v))
    scale = max(float(np.max(np.abs(v))), 1e-300)
    rel = float(np.max(np.abs(fast.data - dense.matrix @ v))) / scale
    checks.check(rel <= GATE_TOL, f"full-cube identity {rel:.3e}")
    out = {"gate_full_cube_rel": rel}
    if ladder:
        ex = galerkin_oracle.assemble_square_sum(full).matrix @ v
        got = fast_apply.square_sum_apply(
            full, index_set.CoeffVector(full, v)).data
        rel2 = float(np.max(np.abs(got - ex))) / scale
        checks.check(rel2 <= GATE_TOL, f"x^2 ladder identity {rel2:.3e}")
        out["gate_ladder_rel"] = rel2
    return out


# -- rederr workload ---------------------------------------------------------


def hyperbolic_size(dim: int, bound: int) -> int:
    """|{k : prod_l (1 + k_l) <= bound + 1}| by direct enumeration."""
    def count(level: int, budget: int) -> int:
        if level == dim:
            return 1
        return sum(count(level + 1, budget // (k + 1))
                   for k in range(budget))
    return count(0, bound + 1)


class RederrRun:
    """State of the rederr workload inside one process."""

    def __init__(self, wl: Rederr, seed: int, outdir: Path):
        self.wl = wl
        self.seed = seed
        self.out = outdir / f"rederr-{os.getpid()}.csv"

    def setup(self) -> float:
        """Cold set-up of the sweep's first point up to its first apply.

        The same public calls the CLI makes: hyperbolic set, surrogate, test
        vector, then the first fast apply on the set (neighbor tables).
        """
        wl = self.wl
        cold_caches()
        t0 = perf_counter()
        iset = index_set.build_hyperbolic(wl.dim, wl.kmax[0])
        approx = potential_approx.interpolate(
            potential_approx.potential_by_name(wl.potential, wl.dim),
            wl.degree)
        v = error_lab.make_decay_vector(iset, wl.beta)
        fast_apply.fast_algorithm(iset, approx, v)
        return perf_counter() - t0

    def set_sizes(self) -> list[int]:
        return [hyperbolic_size(self.wl.dim, k) for k in self.wl.kmax]

    def sweep(self, checks: Checks) -> float:
        """One cold ``hprop rederr`` call; returns its wall seconds."""
        cold_caches()
        t0 = perf_counter()
        code = hprop.cli.main(self.wl.argv(self.out))
        dt = perf_counter() - t0
        checks.units(1, int(code != 0))
        if code != 0:
            checks.messages.append(f"rederr exited with {code}")
            return dt
        self.check_csv(checks)
        return dt

    def check_csv(self, checks: Checks) -> None:
        wl = self.wl
        try:
            with open(self.out) as fh:
                rows = list(csv.DictReader(
                    line for line in fh if not line.startswith("#")))
            got = {int(r["bound"]): r for r in rows}
            sizes = {k: int(got[k]["set_size"]) for k in wl.kmax}
            max_norm = [float(got[k]["max_norm"]) for k in wl.kmax]
            interior = [float(got[k]["interior_max"]) for k in wl.kmax]
        except (OSError, KeyError, ValueError) as exc:
            checks.check(False, f"rederr CSV does not parse: {exc}")
            return
        checks.check(True, "rederr CSV parses")
        checks.check(list(sizes.values()) == self.set_sizes(),
                     f"set sizes {sizes}")
        checks.check(all(0.0 <= x <= INTERIOR_TOL for x in interior),
                     f"interior_max {interior} above {INTERIOR_TOL:.0e}")
        checks.check(all(a > b for a, b in zip(max_norm, max_norm[1:])),
                     f"max_norm {max_norm} does not fall with K")

    def gate(self, checks: Checks) -> dict:
        wl = self.wl
        approx = potential_approx.interpolate(
            potential_approx.potential_by_name(wl.potential, wl.dim),
            wl.degree)
        out = {"nterms": approx.nterms}
        out.update(full_cube_check(wl.dim, wl.gate_bound, approx, checks,
                                   self.seed, False))
        return out


def make_run(wl, seed: int, outdir: Path):
    if isinstance(wl, Rederr):
        return RederrRun(wl, seed, outdir)
    return PropagationRun(wl, seed)


def run_units(run, checks: Checks) -> tuple[list[float], list[float], list]:
    """One group of units: a propagation study or one rederr sweep.

    Returns (unit latencies in ms, study wall seconds, norm drifts).
    """
    if isinstance(run, RederrRun):
        dt = run.sweep(checks)
        return [1e3 * dt], [dt], []
    lat, wall, drift = run.segment(checks)
    return lat, [wall], [drift]


def min_units(run) -> int:
    return MIN_SWEEPS if isinstance(run, RederrRun) else MIN_STEPS


# -- the two kinds of run -----------------------------------------------------


def cold_setups(run) -> list[float]:
    """Cold set-ups before one unit group; the last one leaves the state."""
    times = [run.setup()]
    while sum(times) < SETUP_SLICE_S and len(times) < SETUP_MAX_PER_GROUP:
        times.append(run.setup())
    return times


def measure(wl, seed: int, seconds: float, outdir: Path) -> dict:
    """Untraced run: set-ups and units until time is up, then the gates."""
    run = make_run(wl, seed, outdir)
    checks = Checks()
    setups: list[float] = []
    lat: list[float] = []
    studies: list[float] = []
    drifts: list[float] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(lat) < min_units(run):
        setups += cold_setups(run)
        a, b, c = run_units(run, checks)
        lat += a
        studies += b
        drifts += c
        if checks.failed and not a:
            break
    rss = peak_rss_mb()
    facts = run.gate(checks)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "step_ms_p50": (percentile(lat, 50), "ms", len(lat)),
        "step_ms_p90": (percentile(lat, 90), "ms", len(lat)),
        "study_s": (statistics.median(studies) if studies else math.nan,
                    "s", len(studies)),
        "peak_rss_mb": (rss, "MB", 1),
    }
    extra = {"fail_ratio": checks.failed / max(checks.attempted, 1),
             "units": len(lat), "studies": len(studies)}
    if drifts:
        extra["norm_drift"] = max(drifts)
    return finish(wl, run, seed, checks, metrics, extra, facts)


def measure_traced(wl, seed: int, outdir: Path) -> dict:
    """Traced run: a fixed amount of work, so its counts repeat exactly.

    One traced cold set-up, then ``trace_rounds`` pairs of unit groups, each
    pair one untraced group followed by the same group traced.  Alternating the
    two keeps slow drift of the machine out of the tracing overhead.
    """
    run = make_run(wl, seed, outdir)
    checks = Checks()
    tracer = tr.Tracer(f"{wl.name}-{seed}-{os.getpid()}")
    hooks = layer_hooks()
    untraced: list[float] = []
    traced: list[float] = []
    drifts: list[float] = []

    with tracer.recording(hooks, tr.BENCH_SETUP):
        run.setup()
    for _ in range(wl.trace_rounds):
        untraced += run_units(run, checks)[0]
        with tracer.recording(hooks, tr.BENCH_UNIT):
            lat, _, drift = run_units(run, checks)
        traced += lat
        drifts += drift
    facts = run.gate(checks)
    tracer.write_jsonl(outdir / f"trace-{wl.name}-seed{seed}.jsonl")
    metrics = layer_metrics(tracer)
    p_un, p_tr = percentile(untraced, 50), percentile(traced, 50)
    metrics["trace.untraced_unit_ms_p50"] = (p_un, "ms", len(untraced))
    metrics["trace.traced_unit_ms_p50"] = (p_tr, "ms", len(traced))
    metrics["trace.overhead_ratio"] = (p_tr / p_un, "ratio", len(traced))
    metrics["result.norm_drift"] = (max(drifts) if drifts else 0.0, "1",
                                    len(drifts))
    extra = {"fail_ratio": checks.failed / max(checks.attempted, 1),
             "missing_hooks": tracer.missing}
    return finish(wl, run, seed, checks, metrics, extra, facts)


def finish(wl, run, seed, checks, metrics, extra, facts) -> dict:
    facts = dict(facts, workload=wl.name, seed=seed,
                 set_sizes=run.set_sizes(),
                 scheme=getattr(wl, "scheme", None),
                 krylov=getattr(wl, "krylov", None), **machine_facts())
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "messages": checks.messages,
            "metrics": metrics, "extra": extra, "facts": facts}


# -- per-layer hooks and metrics ----------------------------------------------


def _note_set(tracer, args, kwargs, result):
    tracer.note("members", result.size)
    return result


def _note_interpolate(tracer, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    tracer.note("grid_points", (result.degree + 1) ** spec.dim)
    mixed = int(np.count_nonzero((result.degrees > 0).sum(axis=1) >= 2))
    tracer.note("terms", (result.nterms, mixed))
    return result


def sweeps_per_apply(degrees: np.ndarray) -> int:
    """Coordinate sweeps of one apply, computed from the surrogate's terms.

    Each mixed term walks its own product (|r| sweeps); single-axis terms
    share one sweep per axis up to that axis' largest degree.
    """
    active = degrees > 0
    nactive = active.sum(axis=1)
    mixed = int(degrees[nactive >= 2].sum())
    single = degrees[nactive == 1]
    return mixed + int(single.max(axis=0).sum()) if single.size else mixed


def _note_apply(tracer, args, kwargs, result):
    appl, approx, v = args[0], args[1], args[2]
    sweeps = sweeps_per_apply(approx.degrees)
    n = appl.iset.size
    item = np.result_type(v.dtype, np.float64).itemsize
    # computed, not measured: per sweep two int64 neighbor tables and two
    # float64 coefficient arrays are read, and five vector passes made
    # (two gathers, the previous term, the result and a temporary)
    tracer.note("apply", (sweeps, n, sweeps * n * (4 * 8 + 5 * item)))
    return result


def _wrap_closure(name):
    def observe(tracer, args, kwargs, result):
        return tracer.wrap(result, name)
    return observe


def _note_lanczos(tracer, args, kwargs, fac):
    tracer.note("lanczos", (fac.hermiticity_defect, fac.orthogonality_defect(),
                            fac.breakdown_at is not None))
    return fac


def layer_hooks() -> list[tuple]:
    """(module, attribute, span name, observer) for every traced call."""
    def hook(module, path, observe=None):
        layer = module.rsplit(".", 1)[1]
        return (module, path, f"{layer}.{path}", observe)

    m_is, m_hb, m_pa = "hprop.index_set", "hprop.hermite_basis", \
        "hprop.potential_approx"
    m_fa, m_go, m_el = "hprop.fast_apply", "hprop.galerkin_oracle", \
        "hprop.error_lab"
    m_kp, m_cli = "hprop.krylov_propagator", "hprop.cli"
    return [
        hook(m_is, "build_full", _note_set),
        hook(m_is, "build_hyperbolic", _note_set),
        hook(m_is, "from_indices", _note_set),
        hook(m_is, "IndexSet.neighbor_ordinals"),
        hook(m_is, "extend"),
        hook(m_is, "restrict"),
        hook(m_hb, "gauss_hermite_rule"),
        hook(m_hb, "eval_hermite_functions"),
        hook(m_pa, "interpolate", _note_interpolate),
        hook(m_pa, "eval_interpolant"),
        hook(m_fa, "fast_algorithm"),
        hook(m_fa, "apply_hamiltonian"),
        hook(m_fa, "square_sum_apply"),
        hook(m_fa, "get_applier"),
        hook(m_fa, "PolynomialApplier.apply_polynomial", _note_apply),
        hook(m_fa, "PolynomialApplier.apply_hamiltonian"),
        hook(m_fa, "PolynomialApplier.apply_square_sum"),
        hook(m_go, "assemble_quad_galerkin"),
        hook(m_go, "assemble_with_rule"),
        hook(m_go, "assemble_exact_galerkin"),
        hook(m_go, "assemble_square_sum"),
        hook(m_el, "make_decay_vector"),
        hook(m_el, "reduction_error"),
        hook(m_el, "reduction_local_mask"),
        hook(m_el, "FastHamiltonian.matvec_at",
             _wrap_closure("error_lab.fast_matvec")),
        hook(m_el, "OracleHamiltonian.matvec_at",
             _wrap_closure("error_lab.oracle_matvec")),
        hook(m_kp, "propagate_magnus"),
        hook(m_kp, "magnus_step"),
        hook(m_kp, "lanczos_exp_apply"),
        hook(m_kp, "lanczos", _note_lanczos),
        hook(m_kp, "expm_tridiag_column"),
        hook(m_cli, "main"),
        hook(m_cli, "cmd_rederr"),
    ]


APPLY = "fast_apply.PolynomialApplier.apply_polynomial"
GALERKIN_ASSEMBLY = ("galerkin_oracle.assemble_quad_galerkin",
                     "galerkin_oracle.assemble_with_rule",
                     "galerkin_oracle.assemble_exact_galerkin",
                     "galerkin_oracle.assemble_square_sum")
OPERATOR_CLOSURES = ("error_lab.fast_matvec", "error_lab.oracle_matvec")


def layer_metrics(tracer: tr.Tracer) -> dict:
    """Per-layer metrics of a traced run as {name: (value, unit, samples)}."""
    tab = tr.SpanTable(tracer.spans)
    notes = tracer.notes
    in_unit = tab.inside([tr.BENCH_UNIT])
    unit_s = tab.total(tr.BENCH_UNIT)
    m: dict[str, tuple] = {}

    def put(name, value, unit, samples=1):
        m[name] = (value, unit, samples)

    def share(layer):
        return tab.layer_self(layer, in_unit) / unit_s if unit_s else 0.0

    builds = [f"index_set.{f}" for f in
              ("build_full", "build_hyperbolic", "from_indices")]
    put("index_set.build_s", sum(tab.total(b) for b in builds), "s",
        sum(tab.count(b) for b in builds))
    neighbors = "index_set.IndexSet.neighbor_ordinals"
    put("index_set.neighbor_s", tab.total(neighbors), "s",
        tab.count(neighbors))
    put("index_set.members", sum(notes.get("members", [])), "count",
        len(notes.get("members", [])))

    put("hermite_basis.rule_s", tab.total("hermite_basis.gauss_hermite_rule"),
        "s", tab.count("hermite_basis.gauss_hermite_rule"))

    interp = "potential_approx.interpolate"
    in_interp = tab.inside([interp])
    terms = notes.get("terms", [(0, 0)])
    put("potential_approx.interpolate_s", tab.total(interp), "s",
        tab.count(interp))
    put("potential_approx.interpolate_calls", tab.count(interp), "count")
    put("potential_approx.validate_s",
        tab.total("potential_approx.eval_interpolant", in_interp), "s",
        tab.count("potential_approx.eval_interpolant", in_interp))
    put("potential_approx.grid_points", sum(notes.get("grid_points", [])),
        "count")
    put("potential_approx.nterms", max(t[0] for t in terms), "count")
    put("potential_approx.mixed_terms", max(t[1] for t in terms), "count")

    applies = notes.get("apply", [])
    apply_s = tab.total(APPLY)
    entry_sweeps = sum(s * n for s, n, _ in applies)
    put("fast_apply.apply_s", apply_s, "s", len(applies))
    put("fast_apply.apply_calls", len(applies), "count")
    put("fast_apply.apply_ms_p50",
        1e3 * statistics.median(tab.durations(APPLY)) if applies else 0.0,
        "ms", len(applies))
    put("fast_apply.sweeps_per_apply", max((s for s, _, _ in applies),
                                           default=0), "count")
    put("fast_apply.ns_per_entry_sweep",
        1e9 * apply_s / entry_sweeps if entry_sweeps else 0.0, "ns",
        len(applies))
    put("fast_apply.bytes_per_apply", max((b for _, _, b in applies),
                                          default=0), "B")
    put("fast_apply.square_s",
        tab.total("fast_apply.PolynomialApplier.apply_square_sum"), "s",
        tab.count("fast_apply.PolynomialApplier.apply_square_sum"))

    # assemble_quad_galerkin calls assemble_with_rule: count the outer one
    outer_asm = [i for i, (name, _, _, parent) in enumerate(tracer.spans)
                 if name in GALERKIN_ASSEMBLY and (
                     parent < 0 or
                     tracer.spans[parent][0] not in GALERKIN_ASSEMBLY)]
    put("galerkin_oracle.assemble_s", sum(tab.duration[i] for i in outer_asm),
        "s", len(outer_asm))
    put("galerkin_oracle.assemble_calls", len(outer_asm), "count")

    matvec_at = [i for i, rec in enumerate(tracer.spans)
                 if rec[0].endswith("Hamiltonian.matvec_at")]
    put("error_lab.matvec_at_s", sum(tab.self_time[i] for i in matvec_at),
        "s", len(matvec_at))
    put("error_lab.oracle_matvec_s", tab.total("error_lab.oracle_matvec"),
        "s", tab.count("error_lab.oracle_matvec"))
    put("error_lab.reduction_error_s", tab.total("error_lab.reduction_error"),
        "s", tab.count("error_lab.reduction_error"))
    put("error_lab.local_mask_s", tab.total("error_lab.reduction_local_mask"),
        "s", tab.count("error_lab.reduction_local_mask"))

    lanczos = "krylov_propagator.lanczos"
    in_lanczos = tab.inside([lanczos])
    lanczos_spans = [i for i, rec in enumerate(tracer.spans)
                     if rec[0] == lanczos]
    facs = notes.get("lanczos", [])
    expm = "krylov_propagator.expm_tridiag_column"
    put("krylov_propagator.lanczos_s", tab.total(lanczos), "s",
        len(lanczos_spans))
    put("krylov_propagator.lanczos_self_s",
        sum(tab.self_time[i] for i in lanczos_spans), "s", len(lanczos_spans))
    put("krylov_propagator.matvecs",
        sum(tab.count(c, in_lanczos) for c in OPERATOR_CLOSURES), "count")
    put("krylov_propagator.expm_s", tab.total(expm), "s", tab.count(expm))
    put("krylov_propagator.expm_calls", tab.count(expm), "count")
    put("krylov_propagator.hermiticity_defect_max",
        max((f[0] for f in facs), default=0.0), "1", len(facs))
    put("krylov_propagator.orthogonality_defect_max",
        max((f[1] for f in facs), default=0.0), "1", len(facs))
    put("krylov_propagator.breakdowns", sum(1 for f in facs if f[2]), "count")
    put("krylov_propagator.expm_share",
        tab.total(expm, in_unit) / unit_s if unit_s else 0.0, "ratio")

    for layer in tr.LAYERS:
        put(f"{layer}.self_s", tab.layer_self(layer), "s")
        put(f"{layer}.share", share(layer), "ratio")
    put("trace.unattributed_share", share("bench"), "ratio")
    put("trace.observe_s", tab.total(tr.OBSERVE), "s", tab.count(tr.OBSERVE))
    put("trace.spans", len(tracer.spans), "count")
    put("trace.units_s", unit_s, "s", tab.count(tr.BENCH_UNIT))
    return m


# -- machine facts ------------------------------------------------------------


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _cache_sizes() -> dict:
    out = {}
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(root.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out
