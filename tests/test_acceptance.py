"""Go/no-go gates for the toolkit's headline behaviors.

Each test pins either an absolute tolerance or a factor-10 band around a
reference magnitude.  Wall-clock budgets are generous; the bands absorb
hardware and roundoff variation, while monotonicity and rate assertions
pin the behavior that actually matters.
"""

import math
import time

import numpy as np
import pytest

from hprop import (
    MagnusScheme,
    OracleHamiltonian,
    assemble_quad_galerkin,
    assemble_with_rule,
    build_full,
    build_hyperbolic,
    build_reference,
    gauss_hermite_rule,
    get_applier,
    henon_heiles_perturbed,
    interpolate,
    lanczos_exp_apply,
    lanczos_perturbation_error,
    make_decay_vector,
    propagate_and_compare,
    quadrature_error,
    reduction_error,
    reduction_local_mask,
    torsional,
    torsional_minus_harmonic,
    verify_diagonalization,
)

BAND = 10.0

QUAD_NORM_TARGETS = {25: 1.270e-09, 50: 7.629e-11, 75: 1.466e-11}
RED_NORM_TARGETS = {25: 2.975e-08, 50: 1.621e-09, 75: 2.729e-10}
PERTURBATION_TARGETS = {10: 3.731e-06, 40: 1.464e-07}
MIDPOINT_TARGETS = [1.666e-05, 4.062e-06, 1.014e-06, 2.523e-07, 1.837e-07]
GL2_TARGET = 1.973e-06


def in_band(value: float, target: float) -> bool:
    return target / BAND <= value <= target * BAND


# -- 1: insertion algorithm equals the assembled order-K Galerkin matrix -------


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_full_cube_apply_matches_assembled_quadrature_matrix():
    start = time.perf_counter()
    for dim in (1, 2, 3):
        approx = interpolate(torsional(dim), 8)
        for bound in (4, 8, 12):
            full = build_full(dim, bound)
            dense = assemble_quad_galerkin(
                full, approx, gauss_hermite_rule(bound)).matrix
            appl = get_applier(full)
            rng = np.random.default_rng([101, dim, bound])
            for _ in range(20):
                v = rng.standard_normal(full.size)
                fast = appl.apply_polynomial(approx, v)
                assert np.max(np.abs(fast - dense @ v)) <= \
                    1e-10 * np.max(np.abs(v))
    assert time.perf_counter() - start < 60.0


# -- 2: discrete orthonormality and coordinate diagonalization -----------------


def test_discrete_orthonormality_and_coordinate_diagonalization():
    start = time.perf_counter()
    _, orth_1d = verify_diagonalization(100, 1)
    assert orth_1d <= 1e-11
    for dim in (1, 2):
        diag_res, orth_res = verify_diagonalization(30, dim)
        assert diag_res <= 1e-10
        assert orth_res <= 1e-11
    assert time.perf_counter() - start < 60.0


# -- 3: quadrature rules reproduce analytic Gaussian moments -------------------


def test_rule_moments_match_analytic_gaussian_integrals():
    for order in range(41):
        rule = gauss_hermite_rule(order)
        for p in range(2 * order + 2):
            value = float(np.sum(rule.weights * rule.nodes ** p))
            if p % 2 == 0:
                exact = math.exp(math.lgamma((p + 1) / 2.0))
                assert abs(value - exact) <= 1e-12 * exact
            else:
                # exact moment is zero; scale by the absolute-value integral
                scale = math.exp(math.lgamma((p + 2) / 2.0))
                assert abs(value) <= 1e-12 * scale


# -- 4 and 5: quadrature and reduction error magnitudes on pruned sets ---------


@pytest.fixture(scope="module")
def coupling_error_study():
    start = time.perf_counter()
    approx = interpolate(torsional(2), 8)
    per_bound = {}
    for bound in (25, 50, 75):
        iset = build_hyperbolic(2, bound)
        v = make_decay_vector(iset, 5)
        per_bound[bound] = {
            "quad": quadrature_error(iset, approx, v),
            "red": reduction_error(iset, approx, v),
            "mask": reduction_local_mask(iset, approx),
        }
    return per_bound, time.perf_counter() - start


def test_quadrature_and_reduction_errors_land_in_reference_bands(
        coupling_error_study):
    per_bound, elapsed = coupling_error_study
    quad = [np.max(per_bound[k]["quad"]) for k in (25, 50, 75)]
    red = [np.max(per_bound[k]["red"]) for k in (25, 50, 75)]
    for value, (bound, target) in zip(quad, sorted(QUAD_NORM_TARGETS.items())):
        assert in_band(value, target), (bound, value, target)
    for value, (bound, target) in zip(red, sorted(RED_NORM_TARGETS.items())):
        assert in_band(value, target), (bound, value, target)
    assert quad[0] > quad[1] > quad[2]
    assert red[0] > red[1] > red[2]
    assert elapsed < 300.0


def test_reduction_error_vanishes_on_interior_indices(coupling_error_study):
    per_bound, _ = coupling_error_study
    for bound, data in per_bound.items():
        mask = data["mask"]
        assert mask.any(), bound
        assert np.max(data["red"][mask]) <= 1e-13, bound


# -- 6: fast-matvec perturbation of a Krylov exponential -----------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_krylov_perturbation_magnitude_and_linear_step_scaling():
    start = time.perf_counter()
    spec = torsional_minus_harmonic(2)
    for bound, target in PERTURBATION_TARGETS.items():
        iset = build_hyperbolic(2, bound)
        errs = lanczos_perturbation_error(iset, spec, 8, 3,
                                          [1 / 10, 1 / 20, 1 / 40, 1 / 80], 5)
        assert in_band(errs[0], target), (bound, errs[0], target)
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.8 <= coarse / fine <= 2.2, (bound, errs)
    assert time.perf_counter() - start < 120.0


# -- 7: endpoint errors of Magnus-Krylov propagation ---------------------------


@pytest.fixture(scope="module")
def propagation_study():
    start = time.perf_counter()
    iset = build_hyperbolic(2, 40)
    spec = henon_heiles_perturbed(2)
    y0 = make_decay_vector(iset, 3).data.astype(np.complex128)
    reference = build_reference(OracleHamiltonian(iset, spec, 3), y0)
    midpoint = propagate_and_compare(
        iset, spec, 3, 3, MagnusScheme.from_name("midpoint"),
        [10, 20, 40, 80, 160], 7, reference=reference)
    gl2 = propagate_and_compare(
        iset, spec, 3, 3, MagnusScheme.from_name("gl2"),
        [10], 7, reference=reference)
    return midpoint, gl2, time.perf_counter() - start


def test_propagation_error_bands_and_scheme_orders(propagation_study):
    midpoint, gl2, elapsed = propagation_study
    errs = [scheme_error for scheme_error, _ in midpoint]
    for value, target in zip(errs, MIDPOINT_TARGETS):
        assert in_band(value, target), (errs, MIDPOINT_TARGETS)
    # second-order decay while above the perturbation floor
    assert 3.0 <= errs[0] / errs[1] <= 5.0
    assert 3.0 <= errs[1] / errs[2] <= 5.0
    # never grows when the step shrinks, even once the floor is reached
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse * 1.05
    gl2_err = gl2[0][0]
    assert in_band(gl2_err, GL2_TARGET), gl2_err
    assert gl2_err < errs[0]
    assert elapsed < 900.0


# -- 8: cost scaling of the insertion algorithm --------------------------------


def test_apply_cost_scales_like_set_size_and_beats_dense_assembly():
    start = time.perf_counter()
    approx = interpolate(torsional(2), 8)

    def best_fast_time(bound, reps=7):
        iset = build_hyperbolic(2, bound)
        appl = get_applier(iset)
        v = np.random.default_rng([808, bound]).standard_normal(iset.size)
        appl.apply_polynomial(approx, v)
        best = math.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            appl.apply_polynomial(approx, v)
            best = min(best, time.perf_counter() - t0)
        return best, iset.size

    sizes, times = [], []
    for bound in (20, 40, 80, 160):
        dt, n = best_fast_time(bound)
        sizes.append(n)
        times.append(dt)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    assert slope <= 1.3, (slope, sizes, times)

    t_fast, _ = best_fast_time(60)
    iset = build_hyperbolic(2, 60)
    rule = gauss_hermite_rule(60)
    v = np.random.default_rng([808, 60]).standard_normal(iset.size)

    def dense_once():
        return assemble_with_rule(iset, approx, rule).matrix @ v

    dense_once()
    dense_times = []
    for _ in range(5):
        t0 = time.perf_counter()
        dense_once()
        dense_times.append(time.perf_counter() - t0)
    t_dense = sorted(dense_times)[2]
    assert t_dense / t_fast >= 50.0, (t_fast, t_dense)
    assert time.perf_counter() - start < 300.0


# -- 9: full-subspace Krylov exponentials are exact -----------------------------


def test_full_space_krylov_exponential_is_exact():
    for case in range(20):
        rng = np.random.default_rng([909, case])
        n = int(rng.integers(2, 33))
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = 0.5 * (raw + raw.conj().T)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tau = float(rng.uniform(0.1, 1.5))

        evals, evecs = np.linalg.eigh(a)
        exact = evecs @ (np.exp(-1j * tau * evals) * (evecs.conj().T @ v))

        u, fac = lanczos_exp_apply(lambda w: a @ w, v, tau, n,
                                   reorthogonalize=True)
        scale = np.linalg.norm(v)
        assert np.linalg.norm(u - exact) <= 1e-10 * scale, case
        assert abs(np.linalg.norm(u) - scale) <= 1e-10 * scale, case

        # norm conservation holds on truncated subspaces as well
        u_small, _ = lanczos_exp_apply(lambda w: a @ w, v, tau, min(5, n),
                                       reorthogonalize=True)
        assert abs(np.linalg.norm(u_small) - scale) <= 1e-10 * scale, case
