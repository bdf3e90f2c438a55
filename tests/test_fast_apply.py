import gc
import itertools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hprop import (
    ChebApprox,
    CoeffVector,
    apply_hamiltonian,
    assemble_quad_galerkin,
    assemble_square_sum,
    build_full,
    build_hyperbolic,
    custom_potential,
    fast_algorithm,
    gauss_hermite_rule,
    get_applier,
    henon_heiles_perturbed,
    interpolate,
    smooth_remainder,
    square_sum_apply,
    torsional,
)

# -- test-local dense oracle, built straight from the two-band coupling rule --


def dense_coordinate(iset, axis):
    n = iset.size
    mat = np.zeros((n, n))
    for i, row in enumerate(iset.indices.tolist()):
        k = row[axis - 1]
        below = list(row)
        below[axis - 1] = k - 1
        if k > 0 and tuple(below) in iset:
            mat[i, iset.locate(below)] = math.sqrt(k / 2.0)
        above = list(row)
        above[axis - 1] = k + 1
        if tuple(above) in iset:
            mat[i, iset.locate(above)] = math.sqrt((k + 1) / 2.0)
    return mat


def cheb_of_coordinate(iset, axis, degree, halfwidth, v):
    """T_degree(X_axis / halfwidth) v, applied as a one-term surrogate."""
    degrees = np.zeros((1, iset.dim), dtype=np.int64)
    degrees[0, axis - 1] = degree
    term = ChebApprox(dim=iset.dim, degree=degree, halfwidth=halfwidth,
                      time=0.0, degrees=degrees, coeffs=np.ones(1))
    # the degree-margin warning says nothing about the operator itself
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return fast_algorithm(iset, term, v)


def cheb_of_matrix(mat, deg):
    t0 = np.eye(mat.shape[0])
    if deg == 0:
        return t0
    t1 = mat
    for _ in range(deg - 1):
        t0, t1 = t1, 2.0 * mat @ t1 - t0
    return t1


def dense_surrogate(iset, approx, order=None):
    # ordered product, order[0] applied to the vector first; by default the
    # last axis first
    if order is None:
        order = range(iset.dim, 0, -1)
    xs = [dense_coordinate(iset, axis) / approx.halfwidth
          for axis in range(1, iset.dim + 1)]
    out = np.zeros((iset.size, iset.size))
    for row, alpha in approx.terms:
        term = np.eye(iset.size)
        for axis in order:
            if row[axis - 1] > 0:
                term = cheb_of_matrix(xs[axis - 1], row[axis - 1]) @ term
        out += alpha * term
    return out


def per_term_surrogate(iset, approx, v, order):
    # each term on its own, composed from single-factor applications
    out = np.zeros(iset.size)
    for row, alpha in approx.terms:
        w = CoeffVector(iset, v)
        for axis in order:
            w = cheb_of_coordinate(iset, axis, row[axis - 1],
                                   approx.halfwidth, w)
        out += alpha * w.data
    return out


def gaussian_well(pts, t):
    # non-separable: most surrogate terms are mixed (112 of 125 in 3-D at
    # degree 8)
    return -(1.0 + 0.5 * math.sin(t) ** 2) * np.exp(
        -(pts * pts).sum(axis=-1) / 50.0)


def gaussian_well_spec(dim):
    return custom_potential(gaussian_well, dim, 16.0)


# -- coordinate and single-axis application -----------------------------------


@pytest.mark.parametrize("dim,bound,axis", [(1, 12, 1), (2, 10, 1),
                                            (2, 10, 2), (3, 6, 2)])
def test_coordinate_apply_matches_coupling_rule(dim, bound, axis, rng):
    iset = build_hyperbolic(dim, bound)
    v = CoeffVector(iset, rng.standard_normal(iset.size))
    got = cheb_of_coordinate(iset, axis, 1, 1.0, v)
    want = dense_coordinate(iset, axis) @ v.data
    assert np.max(np.abs(got.data - want)) < 1e-14


def test_coordinate_apply_respects_pruned_neighbors():
    iset = build_hyperbolic(2, 10)
    e = np.zeros(iset.size)
    e[iset.locate((2, 2))] = 1.0
    out = cheb_of_coordinate(iset, 1, 1, 1.0, CoeffVector(iset, e)).data
    # (3, 2) is pruned, so only the downward coupling survives
    assert out[iset.locate((1, 2))] == pytest.approx(math.sqrt(1.0))
    assert np.count_nonzero(out) == 1


@pytest.mark.parametrize("deg", [0, 1, 2, 5, 8])
def test_chebyshev_of_coordinate_matches_matrix_recurrence(deg, rng):
    iset = build_hyperbolic(2, 12)
    L = 16.0
    v = CoeffVector(iset, rng.standard_normal(iset.size))
    got = cheb_of_coordinate(iset, 1, deg, L, v)
    want = cheb_of_matrix(dense_coordinate(iset, 1) / L, deg) @ v.data
    assert np.max(np.abs(got.data - want)) < 1e-12


# -- whole-surrogate application ----------------------------------------------


@pytest.mark.parametrize("dim,bound,degree,potential", [
    (1, 16, 7, torsional),
    (2, 12, 5, torsional),
    (2, 12, 5, henon_heiles_perturbed),
    (3, 8, 3, henon_heiles_perturbed),
    (3, 10, 6, gaussian_well_spec),
])
# the operator identity holds whatever the quadrature margin
@pytest.mark.filterwarnings("ignore:surrogate degree:UserWarning")
def test_fast_algorithm_matches_ordered_dense_product(dim, bound, degree,
                                                      potential, rng):
    # the 1-D surrogate never enters the walk; the well's mixed terms reach
    # the last-applied axis through it
    iset = build_hyperbolic(dim, bound)
    spec = smooth_remainder(potential(dim))
    approx = interpolate(spec, degree, time=0.4)
    v = CoeffVector(iset, rng.standard_normal(iset.size)
                    + 1j * rng.standard_normal(iset.size))
    for order in [None, *itertools.permutations(range(1, dim + 1))]:
        got = fast_algorithm(iset, approx, v, axis_order=order)
        want = dense_surrogate(iset, approx, order) @ v.data
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got.data - want)) < 1e-13 * scale


def test_shared_axis_sweep_equals_per_term_application(rng):
    # the shared-sweep walk must agree with running each term separately
    cases = [(dim, bound, smooth_remainder(henon_heiles_perturbed(dim)), 7)
             for dim, bound in ((2, 30), (3, 12), (4, 10))]
    cases += [(3, 20, gaussian_well_spec(3), 8),
              (4, 12, gaussian_well_spec(4), 6)]
    for dim, bound, spec, degree in cases:
        iset = build_hyperbolic(dim, bound)
        approx = interpolate(spec, degree, time=0.9)
        appl = get_applier(iset)
        v = rng.standard_normal(iset.size)
        for order in (range(dim, 0, -1), range(1, dim + 1)):
            order = list(order)
            got = appl.apply_polynomial(approx, v, axis_order=order)
            want = per_term_surrogate(iset, approx, v, order)
            assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


def test_one_apply_allocates_no_block_per_degree(rng):
    # tracemalloc sees numpy buffers; peaks count items of n + 1 float64s.
    # The bounds are the peaks of the per-node sweep (7.3 and 15.6 rows),
    # rounded up, plus for mixed terms the (top + 1) rows of the Clenshaw
    # coefficients: a separable surrogate allocates no such block at all
    iset = build_full(3, 12)
    appl = get_applier(iset)
    v = rng.standard_normal(iset.size)

    def peak_rows(approx):
        appl.apply_polynomial(approx, v)
        tracemalloc.start()
        try:
            appl.apply_polynomial(approx, v)
            return tracemalloc.get_traced_memory()[1] / (8 * (iset.size + 1))
        finally:
            tracemalloc.stop()

    assert peak_rows(interpolate(torsional(3), 8)) < 8.0
    approx = interpolate(gaussian_well_spec(3), 8, time=0.9)
    top = int(approx.degrees[:, 0].max())    # axis 1 is applied last
    assert peak_rows(approx) < 15.6 + top + 1


_LIN_SET = build_hyperbolic(2, 10)
_LIN_APPROX = interpolate(torsional(2), 4)


@given(st.integers(0, 2 ** 31 - 1),
       st.complex_numbers(max_magnitude=8.0, allow_nan=False,
                          allow_infinity=False))
def test_fast_algorithm_is_linear(seed, scalar):
    iset, approx = _LIN_SET, _LIN_APPROX
    gen = np.random.default_rng(seed)
    a = gen.standard_normal(iset.size) + 1j * gen.standard_normal(iset.size)
    b = gen.standard_normal(iset.size)
    appl = get_applier(iset)
    lhs = appl.apply_polynomial(approx, scalar * a + b)
    rhs = scalar * appl.apply_polynomial(approx, a) \
        + appl.apply_polynomial(approx, b)
    scale = max(np.max(np.abs(rhs)), 1.0)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_full_cube_equivalence_with_order_matched_assembly(rng):
    for dim, bound in ((1, 10), (2, 8)):
        full = build_full(dim, bound)
        approx = interpolate(torsional(dim), 4)
        dense = assemble_quad_galerkin(full, approx,
                                       gauss_hermite_rule(bound)).matrix
        v = CoeffVector(full, rng.standard_normal(full.size))
        got = fast_algorithm(full, approx, v)
        assert np.max(np.abs(got.data - dense @ v.data)) < 1e-12


def test_axis_order_immaterial_on_full_cubes(rng):
    full = build_full(2, 9)
    spec = smooth_remainder(henon_heiles_perturbed(2))
    approx = interpolate(spec, 3, time=0.5)
    v = CoeffVector(full, rng.standard_normal(full.size))
    a = fast_algorithm(full, approx, v, axis_order=(2, 1))
    b = fast_algorithm(full, approx, v, axis_order=(1, 2))
    assert np.max(np.abs(a.data - b.data)) < 1e-13


def test_axis_order_matters_on_pruned_sets(rng):
    # pruning makes the per-axis factors non-commuting, so the application
    # order is part of the operation's definition
    iset = build_hyperbolic(2, 12)
    spec = smooth_remainder(henon_heiles_perturbed(2))
    approx = interpolate(spec, 3, time=0.5)
    v = CoeffVector(iset, rng.standard_normal(iset.size))
    a = fast_algorithm(iset, approx, v, axis_order=(2, 1))
    b = fast_algorithm(iset, approx, v, axis_order=(1, 2))
    assert np.max(np.abs(a.data - b.data)) > 1e-9


def test_axis_order_must_be_a_permutation(rng):
    iset = build_hyperbolic(2, 6)
    approx = interpolate(torsional(2), 3)
    v = CoeffVector(iset, rng.standard_normal(iset.size))
    with pytest.raises(ValueError, match="permute"):
        fast_algorithm(iset, approx, v, axis_order=(1, 1))


def test_apply_hamiltonian_adds_oscillator_diagonal(rng):
    iset = build_hyperbolic(2, 10)
    approx = interpolate(torsional(2), 4)
    v = CoeffVector(iset, rng.standard_normal(iset.size))
    ham = apply_hamiltonian(iset, approx, v)
    pot = fast_algorithm(iset, approx, v)
    levels = (iset.indices + 0.5).sum(axis=1)
    assert np.max(np.abs(ham.data - pot.data - levels * v.data)) < 1e-14


def test_vector_from_wrong_set_is_rejected(rng):
    iset = build_hyperbolic(2, 10)
    other = build_hyperbolic(2, 12)
    approx = interpolate(torsional(2), 4)
    v = CoeffVector(other, rng.standard_normal(other.size))
    with pytest.raises(ValueError, match="different index set"):
        fast_algorithm(iset, approx, v)


def test_degree_above_half_bound_warns(rng):
    iset = build_hyperbolic(2, 10)
    approx = interpolate(torsional(2), 8)
    v = CoeffVector(iset, rng.standard_normal(iset.size))
    with pytest.warns(UserWarning, match="exceeds half the basis bound"):
        fast_algorithm(iset, approx, v)
    # comfortable degrees stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast_algorithm(iset, interpolate(torsional(2), 5), v)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_application_raises():
    iset = build_full(1, 6)
    approx = ChebApprox(dim=1, degree=1, halfwidth=1.0, time=0.0,
                        degrees=np.array([[1]]), coeffs=np.array([1e308]))
    v = CoeffVector(iset, np.full(iset.size, 1e3))
    with pytest.raises(RuntimeError, match="non-finite"):
        fast_algorithm(iset, approx, v)


def test_applier_is_cached_per_set():
    iset = build_hyperbolic(2, 8)
    assert get_applier(iset) is get_applier(iset)


def test_applier_gathers_through_the_sets_own_neighbor_tables():
    # the -1 of an absent neighbor gathers the padded zero slot, so the
    # applier needs no copy of the tables
    iset = build_hyperbolic(3, 12)
    appl = get_applier(iset)
    for axis in range(1, iset.dim + 1):
        down, up = iset.neighbor_ordinals(axis)
        assert appl._down[axis - 1] is down
        assert appl._up[axis - 1] is up


def test_applier_is_freed_with_its_set_by_refcount():
    # the set memoizes its applier; a back reference would make a cycle
    # that only the cyclic collector frees
    iset = build_hyperbolic(2, 8)
    appl = get_applier(iset)
    assert appl.iset is iset
    ref = weakref.ref(appl)
    del appl
    gc.disable()
    try:
        del iset
        assert ref() is None
    finally:
        gc.enable()


# -- exact quadratic confinement ----------------------------------------------


def test_square_sum_three_routes_agree(rng):
    # matrix-free banded application, closed-form dense assembly, and an
    # over-resolved quadrature assembly of the plain x**2 potential must be
    # the same operator
    iset = build_hyperbolic(2, 14)
    v = CoeffVector(iset, rng.standard_normal(iset.size))
    fast = square_sum_apply(iset, v).data
    dense = assemble_square_sum(iset).matrix @ v.data
    assert np.max(np.abs(fast - dense)) < 1e-13
    from hprop import assemble_exact_galerkin

    spec = custom_potential(lambda p, t: (p * p).sum(axis=-1), 2, 16.0)
    quad = assemble_exact_galerkin(iset, interpolate(spec, 2)).matrix
    scale = np.max(np.abs(quad))
    assert np.max(np.abs(assemble_square_sum(iset).matrix - quad)) \
        < 1e-13 * scale


def test_square_sum_diagonal_survives_pruning():
    # even where first neighbors are pruned the diagonal keeps j + 1/2
    iset = build_hyperbolic(2, 10)
    mat = assemble_square_sum(iset).matrix
    levels = (iset.indices + 0.5).sum(axis=1)
    assert np.max(np.abs(np.diag(mat) - levels)) == 0.0
    assert np.max(np.abs(mat - mat.T)) == 0.0
