import math

import numpy as np
import pytest

from hprop import (
    CoeffVector,
    assemble_coordinate,
    assemble_exact_galerkin,
    assemble_oscillator_diagonal,
    assemble_quad_galerkin,
    assemble_square_sum,
    assemble_with_rule,
    build_full,
    build_hyperbolic,
    custom_potential,
    dense_cap,
    fast_algorithm,
    gauss_hermite_rule,
    interpolate,
    torsional,
    verify_diagonalization,
)
from hprop.galerkin_oracle import ENV_DENSE_CAP


def test_coordinate_matrix_1d_closed_form():
    full = build_full(1, 5)
    mat = assemble_coordinate(full, 1).matrix
    for j in range(5):
        assert mat[j, j + 1] == pytest.approx(math.sqrt((j + 1) / 2.0))
        assert mat[j + 1, j] == pytest.approx(math.sqrt((j + 1) / 2.0))
    assert np.count_nonzero(mat) == 10


def test_coordinate_matrix_symmetry_on_pruned_sets():
    iset = build_hyperbolic(2, 14)
    for axis in (1, 2):
        mat = assemble_coordinate(iset, axis).matrix
        assert np.max(np.abs(mat - mat.T)) == 0.0


def test_oscillator_diagonal_levels():
    iset = build_hyperbolic(2, 8)
    mat = assemble_oscillator_diagonal(iset).matrix
    want = np.diag((iset.indices + 0.5).sum(axis=1))
    assert np.array_equal(mat, want)


def test_exact_assembly_is_rule_order_invariant(rng):
    # raising the quadrature order beyond the exactness threshold must not
    # change a single entry beyond roundoff
    iset = build_hyperbolic(2, 12)
    approx = interpolate(torsional(2), 6)
    base = assemble_exact_galerkin(iset, approx).matrix
    higher = assemble_with_rule(iset, approx,
                                gauss_hermite_rule(iset.bound + 6 + 10)).matrix
    assert np.max(np.abs(base - higher)) < 1e-12


def test_quad_assembly_requires_order_matching_bound():
    iset = build_hyperbolic(2, 10)
    approx = interpolate(torsional(2), 4)
    with pytest.raises(ValueError, match="rule order mismatch"):
        assemble_quad_galerkin(iset, approx, gauss_hermite_rule(9))
    ok = assemble_quad_galerkin(iset, approx, gauss_hermite_rule(10))
    assert ok.matrix.shape == (iset.size, iset.size)


def test_assembled_operators_are_symmetric():
    iset = build_hyperbolic(2, 10)
    approx = interpolate(torsional(2), 4)
    for op in (assemble_quad_galerkin(iset, approx, gauss_hermite_rule(10)),
               assemble_exact_galerkin(iset, approx)):
        assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-14


def test_quad_and_exact_assemblies_differ_outside_exactness_window():
    # with degree above the window the order-K rule aliases; the two oracles
    # must part ways by a measurable amount or the error studies measure zero
    iset = build_hyperbolic(2, 10)
    approx = interpolate(torsional(2), 8)
    quad = assemble_quad_galerkin(iset, approx,
                                  gauss_hermite_rule(10)).matrix
    exact = assemble_exact_galerkin(iset, approx).matrix
    assert np.max(np.abs(quad - exact)) > 1e-12


def test_dimension_mismatch_rejected():
    iset = build_hyperbolic(2, 8)
    approx = interpolate(torsional(3), 4)
    with pytest.raises(ValueError, match="dimension"):
        assemble_exact_galerkin(iset, approx)
    with pytest.raises(ValueError, match="dimension"):
        assemble_with_rule(iset, approx, gauss_hermite_rule(8))


def test_dense_cap_env_and_force(monkeypatch):
    assert dense_cap() == 20_000
    monkeypatch.setenv(ENV_DENSE_CAP, "50")
    assert dense_cap() == 50
    iset = build_hyperbolic(2, 20)          # 70 rows > 50
    approx = interpolate(torsional(2), 4)
    with pytest.raises(ValueError, match="exceeds the cap"):
        assemble_exact_galerkin(iset, approx)
    monkeypatch.setenv(ENV_DENSE_CAP, "not-a-number")
    with pytest.raises(ValueError, match="must be an integer"):
        dense_cap()


def test_square_sum_assembly_matches_quadrature_of_x_squared():
    iset = build_hyperbolic(2, 12)
    spec = custom_potential(lambda p, t: (p * p).sum(axis=-1), 2, 16.0)
    quad = assemble_exact_galerkin(iset, interpolate(spec, 2)).matrix
    closed = assemble_square_sum(iset).matrix
    assert np.max(np.abs(closed - quad)) < 1e-13 * np.max(np.abs(quad))


def test_full_cube_quad_assembly_matches_fast_application(rng):
    full = build_full(2, 10)
    approx = interpolate(torsional(2), 5)
    dense = assemble_quad_galerkin(full, approx,
                                   gauss_hermite_rule(10)).matrix
    v = CoeffVector(full, rng.standard_normal(full.size))
    fast = fast_algorithm(full, approx, v)
    assert np.max(np.abs(dense @ v.data - fast.data)) < 1e-12


def test_diagonalization_residuals_small():
    diag_res, orth_res = verify_diagonalization(20, 2)
    assert orth_res < 1e-11
    assert diag_res < 1e-10
    with pytest.raises(ValueError, match="limited"):
        verify_diagonalization(120, 2)
