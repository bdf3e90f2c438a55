import gc
import itertools
import math
import sys
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hprop import (
    ChebApprox,
    CoeffVector,
    IndexSet,
    PolynomialApplier,
    apply_hamiltonian,
    assemble_coordinate,
    assemble_quad_galerkin,
    assemble_square_sum,
    build_full,
    build_hyperbolic,
    custom_potential,
    fast_algorithm,
    from_indices,
    gauss_hermite_rule,
    get_applier,
    henon_heiles_perturbed,
    interpolate,
    product_potential,
    smooth_remainder,
    square_sum_apply,
    torsional,
    torsional_minus_harmonic,
)
from hprop import fast_apply

# -- test-local dense oracle, built straight from the two-band coupling rule --


def dense_coordinate(iset, axis):
    n = iset.size
    mat = np.zeros((n, n))
    for i, row in enumerate(iset.indices.tolist()):
        k = row[axis - 1]
        below = list(row)
        below[axis - 1] = k - 1
        if k > 0 and iset.locate(below) >= 0:
            mat[i, iset.locate(below)] = math.sqrt(k / 2.0)
        above = list(row)
        above[axis - 1] = k + 1
        if iset.locate(above) >= 0:
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
    out = np.zeros(iset.size, dtype=np.result_type(v.dtype, np.float64))
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


# not downward closed: on axis 2 the one present down neighbor, of (3, 1),
# is one row back, but (0, 2) and (1, 1) have none
NOT_CLOSED = IndexSet(np.array([[0, 2], [1, 1], [3, 0], [3, 1]]))


@pytest.mark.parametrize("dim,members,degree,potential", [
    (1, 16, 7, torsional),
    (2, 12, 5, torsional),
    (2, 12, 5, henon_heiles_perturbed),
    (3, 8, 3, henon_heiles_perturbed),
    (3, 10, 6, gaussian_well_spec),
    pytest.param(3, build_full(3, 5), 4, gaussian_well_spec, id="cube3d-K5"),
    pytest.param(2, NOT_CLOSED, 3, henon_heiles_perturbed, id="not-closed"),
])
# the operator identity holds whatever the quadrature margin
@pytest.mark.filterwarnings("ignore:surrogate degree:UserWarning")
def test_fast_algorithm_matches_ordered_dense_product(dim, members, degree,
                                                      potential, rng):
    # the 1-D surrogate never enters the walk; the well's mixed terms reach
    # the last-applied axis through it.  ``members`` is a hyperbolic cross's
    # bound or the set itself; the cube sweeps every axis by slices
    iset = members if isinstance(members, IndexSet) \
        else build_hyperbolic(dim, members)
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
    # the shared-sweep walk must agree with running each term separately;
    # the separable surrogates, on crosses below the block crossover, walk
    # nodes with no kids only, applied to complex vectors.  On the 5-D and
    # 6-D K = 16 crosses their constant term cancels the series to a few
    # per cent, and the walk and the per-term sum both read 1e-14-3e-14 of
    # max|result| from a long-double reference: the per-fibre eigh test
    # covers those sets
    cases = [(dim, bound, smooth_remainder(henon_heiles_perturbed(dim)), 7,
              False) for dim, bound in ((2, 30), (3, 12), (4, 10))]
    cases += [(3, 20, gaussian_well_spec(3), 8, False),
              (4, 12, gaussian_well_spec(4), 6, False)]
    cases += [(dim, bound, spec, 8, True)
              for dim, bound in ((2, 40), (3, 30), (4, 24))
              for spec in (torsional(dim),
                           smooth_remainder(torsional_minus_harmonic(dim)))]
    for dim, bound, spec, degree, separable in cases:
        iset = build_hyperbolic(dim, bound)
        approx = interpolate(spec, degree, time=0.9)
        appl = get_applier(iset)
        v = rng.standard_normal(iset.size)
        if separable:
            assert iset.size < fast_apply._BLOCK_ROWS
            v = v + 1j * rng.standard_normal(iset.size)
        for order in (range(dim, 0, -1), range(1, dim + 1)):
            order = list(order)
            got = appl.apply_polynomial(approx, v, axis_order=order)
            want = per_term_surrogate(iset, approx, v, order)
            assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


def gather_only(iset):
    """An applier whose every axis gathers, through tables rebuilt from the
    set, and that knows every axis of the closed set as closed: every sweep
    gathers, and every x**2 partner is read in fibre order."""
    appl = PolynomialApplier(iset)
    tables = [iset.neighbor_ordinals(axis) for axis in range(1, iset.dim + 1)]
    appl._down = [down for down, _ in tables]
    appl._up = [up for _, up in tables]
    appl._fibre = [fast_apply._fibre_order(down, iset.indices[:, a])
                   for a, down in enumerate(appl._down)]
    appl._shift = [0] * iset.dim
    return appl


def with_zero_coupling(approx):
    """``approx`` plus a zero-weight term on axes 1 and 2: the same
    operator, but no longer separable, so every applier walks it."""
    row = np.zeros((1, approx.dim), dtype=np.int64)
    row[0, :2] = 1
    return replace(approx, degrees=np.vstack([approx.degrees, row]),
                   coeffs=np.append(approx.coeffs, 0.0))


def driven_torsional(dim, halfwidth=16.0):
    """(1 + sin(t)**2) (1 - cos(x_l / L)) summed over the axes: separable,
    with coefficients that move in time."""
    def w(x, t):
        return (1.0 + math.sin(t) ** 2) * (1.0 - np.cos(x / halfwidth))

    return product_potential([[(l, w)] for l in range(dim)], dim, halfwidth)


@pytest.mark.parametrize("iset,spec,degree", [
    pytest.param(build_full(3, 12), gaussian_well_spec(3), 8,
                 id="cube3d-K12"),
    pytest.param(build_hyperbolic(3, 40), gaussian_well_spec(3), 8,
                 id="cross3d-K40"),
    pytest.param(build_hyperbolic(12, 40),
                 smooth_remainder(henon_heiles_perturbed(12)), 3,
                 id="henon-heiles12d-K40"),
])
def test_slice_route_equals_gather_route(iset, spec, degree, rng):
    # the cube sweeps every axis by slices, the crosses their last axis
    # only; the x**2 ladder reads its partners 2 s rows away on those axes.
    # 12-D K = 40 is a two-level set, whose tables come from locate
    approx = interpolate(spec, degree, time=0.7)
    slices = PolynomialApplier(iset)
    gathers = gather_only(iset)
    assert any(slices._shift)
    re, im = rng.standard_normal((2, iset.size))
    for v in (re, re + 1j * im):
        for order in (None, tuple(range(1, iset.dim + 1))):
            assert same_bits(slices.apply_polynomial(approx, v, order),
                             gathers.apply_polynomial(approx, v, order))
        assert same_bits(slices.apply_square_sum(v),
                         gathers.apply_square_sum(v))
    # no two-step table is composed: the axes with no shift find their
    # partners 2 rows away in fibre order, where v moves in through the
    # order's rows, the one int table the ladder adds per such axis
    assert "x**2 ordinals" not in slices._tables
    moved = sorted(key[1] for key in slices._tables if key[0] == "fibre rows")
    assert moved == [a for a, s in enumerate(slices._shift) if not s]


# -- per-fibre blocks ----------------------------------------------------------


def eigh_fibre_reference(iset, approx, v):
    """A separable surrogate applied fibre by fibre from eigenpairs.

    On a fibre of m rows along axis a, X_a is the Jacobi matrix J with
    off-diagonal sqrt(k / 2), so p_a(X_a / L) is U diag(p_a(lambda / L)) U^T
    there; the constant term multiplies v itself.
    """
    out = np.zeros(iset.size, dtype=np.result_type(v.dtype, np.float64))
    series = np.zeros((iset.dim, approx.degree + 1))
    for row, alpha in approx.terms:
        if any(row):
            a = int(np.flatnonzero(row)[0])
            series[a, row[a]] += alpha
        else:
            out += alpha * v
    for a in np.flatnonzero(series.any(axis=1)):
        digits = iset.indices[:, a]
        fibre = np.unique(np.delete(iset.indices, a, axis=1), axis=0,
                          return_inverse=True)[1].ravel()
        rows = np.lexsort((digits, fibre))
        sizes = np.bincount(fibre)
        starts = np.cumsum(sizes) - sizes
        for m in np.unique(sizes):
            idx = rows[starts[sizes == m][:, None] + np.arange(m)]
            assert np.array_equal(digits[idx], np.broadcast_to(
                np.arange(m), idx.shape))
            off = np.sqrt(np.arange(1, m) / 2.0)
            lam, U = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
            block = (U * np.polynomial.chebyshev.chebval(
                lam / approx.halfwidth, series[a])) @ U.T
            out[idx] += v[idx] @ block
    return out


STAIRCASE4D = from_indices([(i, j, k, l) for i in range(25) for j in range(13)
                            for k in range(9) for l in range(25)
                            if i + 2 * j + 3 * k + l <= 24])


@pytest.mark.parametrize("iset,blocks", [
    pytest.param(build_hyperbolic(2, 75), False, id="cross2d-K75"),
    pytest.param(build_hyperbolic(5, 16), False, id="cross5d-K16"),
    pytest.param(build_hyperbolic(6, 16), False, id="cross6d-K16"),
    pytest.param(build_hyperbolic(6, 80), True, id="cross6d-K80"),
    pytest.param(build_hyperbolic(12, 40), True, id="cross12d-K40"),
    pytest.param(STAIRCASE4D, True, id="staircase4d"),
])
def test_single_axis_surrogates_match_per_fibre_eigh_blocks(iset, blocks,
                                                            rng):
    # the per-fibre form of a single-axis series, from eigh of J_m; the
    # walk (forced by a zero-weight coupling term) and, where the set takes
    # it, the block route both match it.  The 2-D K = 75 cross is below the
    # crossover, and its long fibres would fail the cost rule as well, and
    # so are the 5-D and 6-D K = 16 crosses; the 12-D cross is a two-level
    # set
    approx = interpolate(torsional(iset.dim), 8, time=0.3)
    appl = PolynomialApplier(iset)
    re, im = rng.standard_normal((2, iset.size))
    for v in (re, re + 1j * im):
        want = eigh_fibre_reference(iset, approx, v)
        for route in (approx, with_zero_coupling(approx)):
            got = appl.apply_polynomial(route, v)
            assert np.max(np.abs(got - want)) \
                <= 1e-13 * np.max(np.abs(want))
    assert isinstance(appl._plans[tuple(range(iset.dim, 0, -1))],
                      fast_apply._Plan)
    assert (appl._blocks_plan(approx.degrees) is not None) == blocks


@pytest.mark.parametrize("iset", [
    pytest.param(build_hyperbolic(4, 100), id="cross4d-K100"),
    pytest.param(build_hyperbolic(6, 40), id="cross6d-K40"),
    pytest.param(build_hyperbolic(6, 80), id="cross6d-K80"),
    pytest.param(STAIRCASE4D, id="staircase4d"),
])
def test_blocks_match_the_walk_above_the_crossover(iset, rng):
    # both orders of a separable surrogate (with its constant term, and one
    # axis left without terms) take the blocks, which match the walk that
    # a zero-weight coupling term forces, for real and complex vectors
    spec = smooth_remainder(torsional_minus_harmonic(iset.dim))
    approx = interpolate(spec, 8, time=0.3)
    keep = approx.degrees[:, 1] == 0
    approx = replace(approx, degrees=approx.degrees[keep],
                     coeffs=approx.coeffs[keep])
    appl = PolynomialApplier(iset)
    re, im = rng.standard_normal((2, iset.size))
    for v in (re, re + 1j * im):
        for order in (None, tuple(range(1, iset.dim + 1))):
            got = appl.apply_polynomial(approx, v, order)
            assert got.dtype == v.dtype
            walk = appl.apply_polynomial(with_zero_coupling(approx), v, order)
            assert np.max(np.abs(got - walk)) <= 1e-13 * np.max(np.abs(walk))
            assert same_bits(got, PolynomialApplier(iset).apply_polynomial(
                approx, v, order))
    plan = appl._plan(approx.degrees, tuple(range(1, iset.dim + 1)))
    assert isinstance(plan, fast_apply._Blocks)
    assert 1 not in plan.axes


def test_block_order_groups_fibres_by_length_digit_major():
    # each group of F fibres of length m is an (m, F) block: digit d of the
    # group's f-th fibre (fibres in their fibre order) at d * F + f
    iset = STAIRCASE4D
    appl = PolynomialApplier(iset)
    for a in range(iset.dim):
        pos, rows, groups = appl._groups(a)
        assert np.array_equal(pos[rows], np.arange(iset.size))
        fibre_pos = appl._fibre[a] if appl._fibre[a] is not None \
            else np.arange(iset.size)
        start = 0
        for m, F in groups:
            block = rows[start:start + m * F].reshape(m, F)
            assert np.array_equal(iset.indices[block, a],
                                  np.broadcast_to(np.arange(m)[:, None],
                                                  (m, F)))
            others = np.delete(iset.indices[block], a, axis=2)
            assert (others == others[:1]).all()
            assert (np.diff(fibre_pos[block[0]]) > 0).all()
            start += m * F
        assert [m for m, _ in groups] == sorted({m for m, _ in groups})
        assert start == iset.size


@pytest.mark.parametrize("dim,bound", [(2, 12), (3, 40), (4, 20), (6, 80),
                                       (8, 16), (12, 40)])
def test_fibre_order_is_the_lexsort_with_the_axis_last(dim, bound):
    # the rows sorted by their other components, then by this one; 12-D
    # K = 40 is a two-level set, so its down tables come from locate
    iset = build_hyperbolic(dim, bound)
    appl = PolynomialApplier(iset)
    cols = list(iset.indices.T)
    for a, pos in enumerate(appl._fibre):
        assert (pos is None) == (a == dim - 1)
        if pos is not None:
            keys = [cols[a]] + [c for b, c in enumerate(cols) if b != a][::-1]
            assert np.array_equal(np.argsort(pos), np.lexsort(keys))
    if dim == 12:
        assert len(iset._levels) == 2


def test_only_closed_axes_without_a_shift_get_a_fibre_order():
    # every cube axis has a constant shift; the set that is not downward
    # closed has neither; a closed set that is no cross gets one per
    # axis but its last
    assert PolynomialApplier(build_full(3, 12))._fibre == [None] * 3
    assert PolynomialApplier(NOT_CLOSED)._fibre == [None, None]
    staircase = from_indices([(i, j, k) for i in range(4) for j in range(3)
                              for k in range(5) if i + 2 * j + k <= 6])
    appl = PolynomialApplier(staircase)
    assert appl._shift == [0, 0, 1]
    assert [pos is None for pos in appl._fibre] == [False, False, True]


def test_constant_shifts_are_read_off_the_down_tables(monkeypatch):
    # row j - e_a is (K+1)**(N-a) rows back on a cube, and on a cross only
    # the last axis keeps a constant shift; the set that is not downward
    # closed has none, though its one present neighbor on axis 2 is 1 back
    assert PolynomialApplier(build_full(3, 12))._shift == [169, 13, 1]
    for dim, bound in ((2, 12), (3, 40), (6, 80)):
        shifts = PolynomialApplier(build_hyperbolic(dim, bound))._shift
        assert shifts == [0] * (dim - 1) + [1]
    assert PolynomialApplier(NOT_CLOSED)._shift == [0, 0]
    # the check reads the tables the applier holds: a dropped coupling
    # sends its axis back to gathers
    tables = IndexSet.neighbor_ordinals

    def corrupted(iset, axis):
        down, up = (t.copy() for t in tables(iset, axis))
        if axis == 1:
            up[down[60]], down[60] = -1, -1
        return down, up

    monkeypatch.setattr(IndexSet, "neighbor_ordinals", corrupted)
    assert PolynomialApplier(build_full(2, 10))._shift == [0, 1]


def test_one_apply_allocates_no_block_per_degree(rng):
    # tracemalloc sees numpy buffers; peaks count items of n + 1 float64s.
    # An apply allocates three sweep rows per live level of the walk, one
    # temporary, the padded input and the result, plus for mixed terms the
    # (top + 1) rows of the Clenshaw coefficients: a separable surrogate
    # (one level) allocates no such block at all.  The compiled walk peaks
    # at 7.1 and 19.5 rows here; the bounds are those of the per-node walk
    # it replaced, which peaked at 7.3 and 20.8
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


def test_complex_apply_is_the_real_applies_of_its_parts(rng):
    # complex vectors sweep with complex tables and real ones with float64
    # tables; each complex product has a zero imaginary factor, so the two
    # kernels agree exactly
    iset = build_hyperbolic(3, 24)
    approx = interpolate(gaussian_well_spec(3), 8, time=0.7)
    appl = get_applier(iset)
    re, im = rng.standard_normal((2, iset.size))
    for apply in (lambda v: appl.apply_polynomial(approx, v),
                  lambda v: appl.apply_hamiltonian(approx, v),
                  appl.apply_square_sum):
        got = apply(re + 1j * im)
        assert got.dtype == np.complex128
        assert np.array_equal(got.real, apply(re))
        assert np.array_equal(got.imag, apply(im))


def test_coupling_tables_are_cached_per_halfwidth(rng):
    # 2 / L is folded into the cached tables, so an applier that serves
    # two halfwidths must hold a table for each; the blocks of a separable
    # surrogate above the crossover are built from J / L and kept with
    # their halfwidth, so a new halfwidth replaces them
    cases = [(build_hyperbolic(3, 24), lambda L: interpolate(
        custom_potential(gaussian_well, 3, L), 8, time=0.7)),
             (build_hyperbolic(6, 80), lambda L: interpolate(
                 torsional(6, L), 8))]
    for iset, surrogate in cases:
        v = rng.standard_normal(iset.size) \
            + 1j * rng.standard_normal(iset.size)
        appl = PolynomialApplier(iset)
        for halfwidth in (16.0, 10.0, 16.0):
            approx = surrogate(halfwidth)
            got = appl.apply_polynomial(approx, v)
            want = PolynomialApplier(iset).apply_polynomial(approx, v)
            assert np.array_equal(got, want)
    assert isinstance(appl._plans[(6, 5, 4, 3, 2, 1)], fast_apply._Blocks)
    assert appl._last_blocks[0] == 16.0


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_plan_follows_a_changing_degree_set(rng):
    # Henon-Heiles 3-D gains the term (1, 0, 0) between t = 0 and t = 0.3;
    # alternating the two on one applier recompiles each time, keeping one
    # plan per axis order, and every apply matches a fresh applier's
    iset = build_hyperbolic(3, 16)
    spec = henon_heiles_perturbed(3)
    early, late = (interpolate(spec, 3, time=t) for t in (0.0, 0.3))
    assert (early.nterms, late.nterms) == (6, 7)
    appl = PolynomialApplier(iset)
    v = rng.standard_normal(iset.size) + 1j * rng.standard_normal(iset.size)
    for approx in (early, late, early, late):
        for order in (None, (1, 2, 3)):
            got = appl.apply_polynomial(approx, v, order)
            want = PolynomialApplier(iset).apply_polynomial(approx, v, order)
            assert same_bits(got, want)
    assert len(appl._plans) == 2


def test_concurrent_callers_alternating_degree_sets_agree(rng):
    # more threads than cores keep replacing each other's plans and blocks
    # on one applier; a caller must keep the plan and the blocks it looked
    # up, so every result stays the one a fresh applier gives.  The set is
    # above the block crossover: the two separable surrogates take blocks,
    # Henon-Heiles's walks
    iset = build_hyperbolic(4, 100)
    spec = henon_heiles_perturbed(4)
    cases = [(interpolate(spec, 3, time=t), order)
             for t in (0.0, 0.3) for order in (None, (1, 2, 3, 4))]
    cases += [(interpolate(torsional(4), 8), None),
              (interpolate(torsional(4, 12.0), 6), None)]
    assert all(PolynomialApplier(iset)._blocks_plan(approx.degrees)
               for approx, _ in cases[4:])
    v = rng.standard_normal(iset.size) + 1j * rng.standard_normal(iset.size)
    want = [PolynomialApplier(iset).apply_polynomial(approx, v, order)
            for approx, order in cases]
    appl = PolynomialApplier(iset)
    wrong = []

    def caller(offset):
        for i in range(200):
            j = (i + offset) % len(cases)
            approx, order = cases[j]
            if not same_bits(appl.apply_polynomial(approx, v, order),
                             want[j]):
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_instants_of_one_degree_set_share_one_plan(monkeypatch, rng):
    # the Gaussian well keeps its degree set over time: the second instant
    # reuses the first one's plan, yet applies its own coefficients.  The
    # route is chosen with the plan: a cube, a separable surrogate on a
    # cross below the crossover or on one whose fibres are too long for the
    # cost rule (3-D K = 200: 28 products a row against 17), and a coupling
    # surrogate above the crossover compile a walk; a separable surrogate
    # above it compiles none, and builds its blocks anew for each instant's
    # coefficients
    compiled = []

    def spy(degrees, order):
        compiled.append(order)
        return compile_plan(degrees, order)

    compile_plan = fast_apply._compile
    monkeypatch.setattr(fast_apply, "_compile", spy)
    cases = [(build_hyperbolic(3, 24), gaussian_well_spec(3), 8, True),
             (build_full(3, 12), driven_torsional(3), 8, True),
             (build_hyperbolic(3, 80), driven_torsional(3), 8, True),
             (build_hyperbolic(3, 200), driven_torsional(3), 8, True),
             (build_hyperbolic(6, 40),
              smooth_remainder(henon_heiles_perturbed(6)), 3, True),
             (build_hyperbolic(6, 80), driven_torsional(6), 8, False)]
    assert cases[2][0].size < fast_apply._BLOCK_ROWS <= min(
        case[0].size for case in cases[3:])
    for iset, spec, degree, walks in cases:
        compiled.clear()
        first, second = (interpolate(spec, degree, time=t)
                         for t in (0.2, 0.9))
        assert np.array_equal(first.degrees, second.degrees)
        assert not np.array_equal(first.coeffs, second.coeffs)
        appl = PolynomialApplier(iset)
        v = rng.standard_normal(iset.size)
        got = [appl.apply_polynomial(approx, v) for approx in (first, second)]
        order = tuple(range(iset.dim, 0, -1))
        assert compiled == ([order] if walks else [])
        assert isinstance(appl._plans[order], fast_apply._Plan) == walks
        for out, approx in zip(got, (first, second)):
            assert same_bits(out, PolynomialApplier(iset).apply_polynomial(
                approx, v))
        assert not np.array_equal(got[0], got[1])


@pytest.mark.parametrize("rows", [[], [[0, 0, 0]], [[0, 0, 0], [2, 0, 0],
                                                   [5, 0, 0]]],
                         ids=["empty", "constant", "last-axis-only"])
def test_degenerate_surrogates_apply_through_their_plans(rows, rng):
    # no term, only T_0, and terms on axis 1 only, which the default order
    # applies last (no walk) and the reversed order first (a root alone)
    iset = build_hyperbolic(3, 12)
    degrees = np.array(rows, dtype=np.int64).reshape(-1, 3)
    approx = ChebApprox(dim=3, degree=int(degrees.max(initial=0)),
                        halfwidth=16.0, time=0.0, degrees=degrees,
                        coeffs=np.linspace(-1.0, 2.0, len(rows)))
    appl = PolynomialApplier(iset)
    v = rng.standard_normal(iset.size) + 1j * rng.standard_normal(iset.size)
    for order in (None, (1, 2, 3)):
        got = appl.apply_polynomial(approx, v, order)
        assert same_bits(got, PolynomialApplier(iset).apply_polynomial(
            approx, v, order))
        want = dense_surrogate(iset, approx, order) @ v
        assert np.max(np.abs(got - want), initial=0.0) \
            < 1e-13 * max(np.max(np.abs(want), initial=0.0), 1.0)
    if len(rows) == 1:
        assert np.array_equal(got, approx.coeffs[0] * v)


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


@pytest.mark.parametrize("iset", [
    pytest.param(build_hyperbolic(3, 40), id="walk-cross3d-K40"),
    pytest.param(build_hyperbolic(6, 40), id="blocks-cross6d-K40"),
])
def test_applier_refuses_a_vector_of_another_length(iset, rng):
    # the block route gathers by the set's rows, so a longer vector would
    # silently lose its tail there; every route refuses it at the entry
    approx = interpolate(torsional(iset.dim), 8, time=0.3)
    appl = PolynomialApplier(iset)
    n = iset.size
    assert (appl._blocks_plan(approx.degrees) is None) \
        == (n < fast_apply._BLOCK_ROWS)
    for shape in ((n + 7,), (2 * n,), (n - 1,), (n, 1)):
        v = rng.standard_normal(shape)
        for apply in (lambda v: appl.apply_polynomial(approx, v),
                      lambda v: appl.apply_hamiltonian(approx, v),
                      appl.apply_square_sum):
            with pytest.raises(ValueError, match="does not match the index "
                                                 "set's"):
                apply(v)


@pytest.mark.parametrize("approx_dim", [1, 3])
def test_applier_refuses_a_surrogate_of_another_dimension(approx_dim, rng):
    # a wider surrogate would silently use its first degree columns, a
    # narrower one would index past its own
    iset = build_hyperbolic(2, 10)
    approx = interpolate(torsional(approx_dim), 4)
    v = rng.standard_normal(iset.size)
    with pytest.raises(ValueError, match="surrogate dimension"):
        get_applier(iset).apply_polynomial(approx, v)


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
    # applier keeps the set's tables as they are, read-only, on the axes
    # that gather; the last axis slides and keeps none
    iset = build_hyperbolic(3, 12)
    appl = get_applier(iset)
    assert appl._down[2] is None and appl._up[2] is None
    for axis in range(1, iset.dim):
        for kept, fresh in zip((appl._down[axis - 1], appl._up[axis - 1]),
                               iset.neighbor_ordinals(axis)):
            assert kept.dtype == fresh.dtype == np.intp
            assert np.array_equal(kept, fresh)
            assert not kept.flags.writeable
        step = np.eye(iset.dim, dtype=np.int64)[axis - 1]
        assert np.array_equal(appl._down[axis - 1] == -1,
                              iset.indices[:, axis - 1] == 0)
        assert np.array_equal(appl._up[axis - 1] == -1,
                              iset.locate(iset.indices + step) < 0)


def built_and_kept(iset, applies):
    """Bytes the set's applier holds once built, and once ``applies()``
    has run on it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        appl = get_applier(iset)            # kept alive by the cache
        built = tracemalloc.get_traced_memory()[0] - before
        applies(appl)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return built, kept


def test_applier_keeps_one_copy_of_the_neighbor_tables(rng):
    # every cube axis slides, so the applier keeps no intp table; a real and
    # then a complex apply each add one padded coupling table per axis, in
    # the vector's dtype.  The slack, less than one more array of n
    # float64s, covers the Python objects only
    iset = build_full(3, 12)
    n, N = iset.size, iset.dim
    approx = interpolate(torsional(3), 4)
    v = rng.standard_normal(n)
    built, kept = built_and_kept(iset, lambda appl: (
        appl.apply_polynomial(approx, v),
        appl.apply_polynomial(approx, v + 0j)))
    assert built < n * 8
    tables = N * (n + 1) * (8 + 16)
    assert tables <= kept < tables + n * 8
    # a cross keeps the 2 (N - 1) tables of the axes that gather and their
    # N - 1 fibre orders, and nothing for its last axis
    iset = build_hyperbolic(6, 80)
    n, N = iset.size, iset.dim
    built, _ = built_and_kept(iset, lambda appl: None)
    tables = 3 * (N - 1) * n * np.dtype(np.intp).itemsize
    assert tables <= built < tables + n * 8


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


def test_square_sum_refuses_an_axis_the_set_is_not_closed_along(rng):
    # on axis 1 of the set that is not closed, (3, 0) has (1, 0) two steps
    # down but not (2, 0) one step down, so two-step partners composed from
    # one-step ones would drop that coupling; a closed set that is no cross
    # gathers on two axes and matches the dense entries
    v = np.arange(1.0, 5.0)
    with pytest.raises(ValueError, match="not closed along axis 1"):
        get_applier(NOT_CLOSED).apply_square_sum(v)
    staircase = from_indices([(i, j, k) for i in range(6) for j in range(5)
                              for k in range(7) if i + 2 * j + k <= 8])
    v = rng.standard_normal(staircase.size)
    for data in (v, v + 1j * rng.standard_normal(staircase.size)):
        fast = square_sum_apply(staircase, CoeffVector(staircase, data)).data
        dense = assemble_square_sum(staircase).matrix @ data
        assert np.max(np.abs(fast - dense)) < 1e-13


def test_ladder_check_catches_a_corrupted_neighbor_table(monkeypatch, rng):
    # the dense oracle finds its partners without the neighbor tables, so
    # dropping one axis-1 coupling changes what the fast x**2 ladder sees only
    tables = IndexSet.neighbor_ordinals
    clean = build_full(2, 10)
    x1, dense = (assemble_coordinate(clean, 1).matrix,
                 assemble_square_sum(clean).matrix)
    cut = clean.locate([5, 5]), clean.locate([4, 5])

    def corrupted(iset, axis):
        down, up = (t.copy() for t in tables(iset, axis))
        if axis == 1:
            down[cut[0]] = up[cut[1]] = -1
        return down, up

    monkeypatch.setattr(IndexSet, "neighbor_ordinals", corrupted)
    iset = build_full(2, 10)
    assert np.array_equal(assemble_coordinate(iset, 1).matrix, x1)
    assert np.array_equal(assemble_square_sum(iset).matrix, dense)
    # the dropped coupling leaves axis 1 open, and the ladder refuses it
    v = CoeffVector(iset, rng.standard_normal(iset.size))
    with pytest.raises(ValueError, match="not closed along axis 1"):
        square_sum_apply(iset, v)


def test_square_sum_diagonal_survives_pruning():
    # even where first neighbors are pruned the diagonal keeps j + 1/2
    iset = build_hyperbolic(2, 10)
    mat = assemble_square_sum(iset).matrix
    levels = (iset.indices + 0.5).sum(axis=1)
    assert np.max(np.abs(np.diag(mat) - levels)) == 0.0
    assert np.max(np.abs(mat - mat.T)) == 0.0
