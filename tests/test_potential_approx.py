import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from hprop import (
    ChebApprox,
    custom_potential,
    eval_interpolant,
    fit_error,
    henon_heiles_perturbed,
    interpolate,
    potential_by_name,
    product_potential,
    smooth_remainder,
    torsional,
    torsional_minus_harmonic,
)
from hprop import index_set
from hprop.potential_approx import DROP_THRESHOLD


def complete(spec, pts, t=0.0):
    """The complete potential V = W + q * sum_l x_l**2 of ``spec``."""
    return spec.evaluator(pts, t) + spec.harmonic_part * (pts ** 2).sum(axis=1)


def test_eval_interpolant_rejects_points_outside_the_box():
    approx = interpolate(torsional(2, 4.0), 3)
    with pytest.raises(ValueError):
        eval_interpolant(approx, np.array([[0.0, 0.0], [0.0, 6.0]]))
    with pytest.raises(ValueError):
        eval_interpolant(approx, np.array([[-4.5, 1.0]]))


def test_interpolate_1d_matches_reference_fit():
    # same first-kind node family as the reference implementation, so the
    # coefficient vectors should agree to rounding
    L = 16.0
    spec = torsional(1, L)
    deg = 8
    approx = interpolate(spec, deg)
    ref = C.chebinterpolate(lambda y: 1.0 - np.cos(y * L / L), deg)
    dense = np.zeros(deg + 1)
    for row, a in approx.terms:
        dense[row[0]] = a
    assert np.max(np.abs(dense - ref)) < 1e-14


def test_interpolate_fit_quality_torsional():
    spec = torsional(1)
    approx = interpolate(spec, 8)
    assert 1e-12 < fit_error(spec, approx) < 1e-8
    # coefficients of the analytic cosine drop fast beyond the leading pair
    # (constant and degree 2 are both about 0.23); from there each kept
    # order is at least an order of magnitude below its predecessor
    mags = [abs(a) for row, a in sorted(approx.terms)]
    assert 0.5 < mags[1] / mags[0] < 1.0
    for lo, hi in zip(mags[2:], mags[1:-1]):
        assert lo < 0.2 * hi


def test_interpolate_separable_potential_keeps_axis_terms_only():
    approx = interpolate(torsional(3), 6)
    active = (approx.degrees > 0).sum(axis=1)
    assert np.all(active <= 1)
    # constant term plus identical per-axis expansions
    per_axis = {}
    for row, a in approx.terms:
        axes = [l for l, d in enumerate(row) if d > 0]
        if axes:
            per_axis.setdefault(axes[0], {})[row[axes[0]]] = a
    assert sorted(per_axis) == [0, 1, 2]
    base = per_axis[0]
    for other in (per_axis[1], per_axis[2]):
        assert sorted(other) == sorted(base)
        for k in base:
            assert other[k] == pytest.approx(base[k], rel=1e-12)


def test_interpolate_linear_coordinate():
    L = 16.0
    spec = custom_potential(lambda p, t: p[:, 0].copy(), 1, L)
    approx = interpolate(spec, 5)
    assert approx.terms == [((1,), pytest.approx(L, rel=1e-14))]


def test_interpolate_degree_zero_constant():
    spec = custom_potential(lambda p, t: np.full(p.shape[0], 3.25), 2, 8.0)
    approx = interpolate(spec, 0)
    assert approx.nterms == 1
    assert approx.terms[0] == ((0, 0), pytest.approx(3.25))
    assert fit_error(spec, approx) < 1e-14


def test_oversized_grid_is_refused_before_any_evaluation():
    def spy(pts, t):
        raise AssertionError("the evaluator must not be called")

    with pytest.raises(ValueError, match="^387420489 interpolation grid"):
        interpolate(custom_potential(spy, 9, 16.0), 8)


def test_cosine_matrix_is_size_checked_on_every_route(monkeypatch):
    # (R + 1)**2 = 1681 entries: the separable route and the 1-D tensor
    # route, whose 41-point grid fits, must both refuse before building it
    def spy(pts, t):
        raise AssertionError("the evaluator must not be called")

    monkeypatch.setattr(index_set, "MAX_ELEMENTS", 1000)
    for spec in (torsional(1), custom_potential(spy, 1, 4.0)):
        with pytest.raises(ValueError, match="^1681 cosine matrix entries"):
            interpolate(spec, 40)
    assert interpolate(torsional(1), 30).nterms > 0


def test_interpolate_rejects_non_finite_potential():
    spec = custom_potential(
        lambda p, t: np.where(p[:, 0] > 0, np.inf, 1.0), 1, 4.0)
    with pytest.raises(ValueError, match="non-finite"):
        interpolate(spec, 3)


def test_eval_interpolant_reproduces_polynomials_exactly(rng):
    L = 5.0
    spec = custom_potential(
        lambda p, t: 0.5 * p[:, 0] ** 3 - p[:, 1] ** 2 + 2.0, 2, L)
    approx = interpolate(spec, 3)
    pts = rng.uniform(-L, L, size=(40, 2))
    got = eval_interpolant(approx, pts)
    want = 0.5 * pts[:, 0] ** 3 - pts[:, 1] ** 2 + 2.0
    assert np.max(np.abs(got - want)) < 1e-11
    assert fit_error(spec, approx) < 1e-11


def test_time_dependence_enters_through_reinterpolation():
    spec = henon_heiles_perturbed(2)
    a0 = interpolate(spec, 3, time=0.0)
    a1 = interpolate(spec, 3, time=1.0)
    t0 = dict(a0.terms)
    t1 = dict(a1.terms)
    # the drive term on the first axis moves with sin(t)**2
    assert t0.get((1, 0), 0.0) == pytest.approx(0.0, abs=1e-14)
    assert t1[(1, 0)] == pytest.approx(-math.sin(1.0) ** 2, rel=1e-12)
    # the static cubic couplings do not move
    for key in ((2, 1), (0, 3)):
        assert t0[key] == pytest.approx(t1[key], rel=1e-12)


def test_chained_cubic_coupling_coefficients():
    # y1**2 y2 - y2**3/3 - sin(t)**2 y1 in stretched units has the closed
    # Chebyshev form (1/2)T2T1 + (1/4)T0T1 - (1/12)T0T3 - sin(t)**2 T1T0
    spec = henon_heiles_perturbed(2)
    t = 0.7
    approx = interpolate(spec, 3, time=t)
    assert fit_error(spec, approx) < 1e-13
    terms = dict(approx.terms)
    assert terms[(2, 1)] == pytest.approx(0.5, rel=1e-12)
    assert terms[(0, 1)] == pytest.approx(0.25, rel=1e-12)
    assert terms[(0, 3)] == pytest.approx(-1.0 / 12.0, rel=1e-12)
    assert terms[(1, 0)] == pytest.approx(-math.sin(t) ** 2, rel=1e-12)
    assert len(terms) == 4


def test_smooth_remainder_subtracts_declared_confinement(rng):
    # the spec already holds the smooth part; only the declaration goes
    spec = torsional_minus_harmonic(2)
    assert spec.harmonic_part == -0.5
    rem = smooth_remainder(spec)
    assert rem.harmonic_part == 0.0
    assert rem.evaluator is spec.evaluator
    assert rem.products is spec.products
    pts = rng.uniform(-16, 16, size=(30, 2))
    assert np.array_equal(complete(rem, pts), spec.evaluator(pts, 0.0))
    want = complete(spec, pts) + 0.5 * (pts ** 2).sum(axis=1)
    assert np.max(np.abs(complete(rem, pts) - want)) < 1e-12
    # a potential that declares no confinement is its own smooth part
    plain = torsional(2)
    assert smooth_remainder(plain) == plain


@pytest.mark.parametrize("dim", [2, 6])
@pytest.mark.parametrize("degree", [4, 8])
def test_torsional_ho_declares_its_confinement_on_torsional(dim, degree,
                                                            rng):
    # the surrogate never sees the -x**2/2, so it is torsional's to the bit
    spec = torsional_minus_harmonic(dim)
    got = interpolate(spec, degree, time=0.3)
    want = interpolate(torsional(dim), degree, time=0.3)
    assert np.array_equal(got.degrees, want.degrees)
    assert np.array_equal(got.coeffs, want.coeffs)
    pts = rng.uniform(-16, 16, size=(30, dim))
    full = complete(torsional(dim), pts) - 0.5 * (pts ** 2).sum(axis=1)
    assert np.max(np.abs(complete(spec, pts) - full)) < 1e-12


def test_potential_by_name_roundtrip():
    for name in ("torsional", "torsional-ho", "henon-heiles"):
        spec = potential_by_name(name, 2)
        assert spec.dim == 2
        assert spec.kind == name
    with pytest.raises(ValueError, match="unknown potential"):
        potential_by_name("quartic", 2)


# -- the tensor interpolation grid --------------------------------------------


def gaussian_well(pts, t):
    return -(1.0 + 0.5 * math.sin(t) ** 2) * np.exp(
        -(pts * pts).sum(axis=-1) / 50.0)


def meshgrid_interpolate(spec, degree, time):
    # the whole-grid formulation: one (R+1)**dim x dim point array, one
    # evaluator call, then the axis-by-axis cosine transform
    R, N, L = degree, spec.dim, spec.halfwidth
    n = R + 1
    theta = np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    grids = np.meshgrid(*([L * np.cos(theta)] * N), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    coeffs = np.asarray(spec.evaluator(pts, time)).reshape((n,) * N)
    C = np.cos(np.arange(n)[:, None] * theta[None, :]) * (2.0 / n)
    C[0] *= 0.5
    for _ in range(N):
        coeffs = np.tensordot(coeffs, C, axes=([0], [1]))
    amax = float(np.max(np.abs(coeffs)))
    mask = np.abs(coeffs) > DROP_THRESHOLD * amax if amax > 0.0 \
        else np.zeros(coeffs.shape, dtype=bool)
    return ChebApprox(N, R, L, time, np.argwhere(mask), coeffs[mask])


def row_major_grid(dim, degree, halfwidth):
    n = degree + 1
    nodes = halfwidth * np.cos(np.pi * (2.0 * np.arange(n) + 1.0) / (2 * n))
    return nodes[np.indices((n,) * dim).reshape(dim, -1).T]


# the ids keep the names these cases had when the grid was evaluated in
# 8192-point blocks (81, 1, 1 and 125 of them)
@pytest.mark.parametrize("spec, degree", [
    (smooth_remainder(torsional_minus_harmonic(6)), 8),
    (custom_potential(gaussian_well, 3, 16.0), 8),
    (torsional(1), 0),
    (torsional(8), 4),
], ids=["spec0-8-81", "spec1-8-1", "spec2-0-1", "spec3-4-125"])
def test_blocked_grid_matches_whole_grid_interpolation(spec, degree):
    calls = []

    def counted(pts, t):
        calls.append(pts.shape[0])
        return spec.evaluator(pts, t)

    # clearing the product declaration keeps the bundled specs on the grid
    got = interpolate(dataclasses.replace(spec, evaluator=counted,
                                          products=None), degree, time=0.3)
    assert len(calls) == 1
    want = meshgrid_interpolate(spec, degree, 0.3)
    assert np.array_equal(got.degrees, want.degrees)
    scale = float(np.max(np.abs(want.coeffs), initial=0.0))
    assert np.max(np.abs(got.coeffs - want.coeffs), initial=0.0) \
        <= 4 * np.finfo(float).eps * scale
    if spec.dim < 8:
        # the evaluator's sums over <= 7 coordinates round the same way
        # whatever the layout, so the surrogate is the same to the bit
        assert np.array_equal(got.coeffs, want.coeffs)
        assert fit_error(spec, got) == fit_error(spec, want)
    else:
        # a contiguous 8-term row sum is pairwise, a strided one sequential
        assert fit_error(spec, got) == pytest.approx(
            fit_error(spec, want), abs=4 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("dim, degree", [(6, 8), (3, 8), (1, 0), (4, 12)])
def test_grid_blocks_cover_the_grid_once_in_row_major_order(dim, degree):
    seen = []

    def spy(pts, t):
        seen.append(np.array(pts))
        return np.zeros(pts.shape[0])

    interpolate(custom_potential(spy, dim, 3.0), degree)
    assert len(seen) == 1
    assert np.array_equal(seen[0], row_major_grid(dim, degree, 3.0))


def test_evaluator_that_writes_its_argument_gives_the_same_surrogate():
    L = 16.0

    def pure(pts, t):
        return (1.0 - np.cos(pts / L)).sum(axis=-1)

    def in_place(pts, t):
        pts /= L
        np.cos(pts, out=pts)
        return (1.0 - pts).sum(axis=-1)

    pure_spec = custom_potential(pure, 6, L)
    in_place_spec = custom_potential(in_place, 6, L)
    want = interpolate(pure_spec, 8)
    got = interpolate(in_place_spec, 8)
    assert want.nterms == 25
    assert np.array_equal(got.degrees, want.degrees)
    assert np.array_equal(got.coeffs, want.coeffs)
    assert fit_error(in_place_spec, got) == fit_error(pure_spec, want)


# -- the separable route ------------------------------------------------------


def gaussian_factor(x, t):
    return np.exp(-x * x / 40.0 - t)


SEPARABLE = [
    torsional,
    torsional_minus_harmonic,
    lambda dim: smooth_remainder(torsional_minus_harmonic(dim)),
    lambda dim: product_potential([[(l, gaussian_factor)] for l in range(dim)],
                                  dim, 8.0),
]
ULP = np.finfo(float).eps


@pytest.mark.parametrize("make", SEPARABLE)
def test_separable_surrogates_have_no_mixed_terms(make):
    # the torsional-ho remainder once kept rounding noise of the cancelled
    # x**2 as (2, 2, 2)-type terms on the tensor grid
    for dim in (1, 2, 3, 6):
        spec = make(dim)
        for degree in (0, 3, 8):
            for t in (0.0, 0.3):
                approx = interpolate(spec, degree, time=t)
                active = (approx.degrees > 0).sum(axis=1)
                assert np.all(active <= 1), (dim, degree, t,
                                             approx.degrees[active > 1])
        assert spec.products is not None


def separable_approx_per_axis(approx):
    # dense (dim, R+1) coefficients of w on each axis; the constant is split
    dense = np.zeros((approx.dim, approx.degree + 1))
    dense[:, 0] = dict(approx.terms)[(0,) * approx.dim] / approx.dim
    for row, a in zip(approx.degrees, approx.coeffs):
        for l in np.flatnonzero(row):
            dense[l, row[l]] = a
    return dense


@pytest.mark.parametrize("make", SEPARABLE)
@pytest.mark.parametrize("dim", [1, 3, 6])
def test_axis_coefficients_match_chebinterpolate(make, dim):
    # numpy takes T_k at its nodes from the recurrence, the interpolation
    # from cos(k theta), so the two agree to rounding growing with k.
    # Degree 0 is left out: numpy's single node is exactly 0, ours
    # L * cos(pi / 2) ~ 1e-15, and every w here vanishes to rounding there.
    spec = make(dim)
    L = spec.halfwidth
    for degree in (1, 3, 8):
        approx = interpolate(spec, degree, time=0.3)
        w = spec.products[0][0][1]
        ref = C.chebinterpolate(lambda y: w(L * y, 0.3), degree)
        tol = 32 * ULP * float(np.max(np.abs(ref)))
        amax = float(np.max(np.abs(approx.coeffs)))
        kept = np.zeros(degree + 1, dtype=bool)
        kept[approx.degrees.max(axis=1)] = True
        for per_axis in separable_approx_per_axis(approx):
            assert np.all(np.abs(per_axis - ref)[kept] <= tol)
            # what was dropped is below the drop threshold
            assert np.all(np.abs(ref[~kept]) <= DROP_THRESHOLD * amax + tol)


@pytest.mark.parametrize("make", SEPARABLE)
@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_separable_route_matches_tensor_route(make, dim):
    spec = make(dim)
    grid_spec = custom_potential(spec.evaluator, dim, spec.halfwidth)
    for degree in (0, 3, 8):
        got = interpolate(spec, degree, time=0.3)
        want = interpolate(grid_spec, degree, time=0.3)
        # the tensor route may also keep mixed rounding noise of the sum
        mixed = (want.degrees > 0).sum(axis=1) >= 2
        scale = float(np.max(np.abs(want.coeffs), initial=0.0))
        assert np.all(np.abs(want.coeffs[mixed]) <= 1e-13 * scale)
        assert np.array_equal(got.degrees, want.degrees[~mixed])
        assert np.max(np.abs(got.coeffs - want.coeffs[~mixed]),
                      initial=0.0) <= 1e-13 * scale


def test_separable_spec_beyond_the_grid_ceiling_never_builds_the_grid():
    def spy(pts, t):
        raise AssertionError("the N-D evaluator must not be called")

    spec = torsional(9)     # its grid at degree 8 would hold 387420489 points
    got = interpolate(dataclasses.replace(spec, evaluator=spy), 8)
    assert got.nterms == 1 + 9 * 4
    assert np.all((got.degrees > 0).sum(axis=1) <= 1)
    want = interpolate(torsional(1), 8)
    assert got.coeffs[0] == 9 * want.coeffs[0]
    assert np.array_equal(got.coeffs[1:], np.tile(want.coeffs[1:], 9))
    assert not got.degrees.flags.writeable and not got.coeffs.flags.writeable


def test_separable_potential_evaluates_the_axis_sum(rng):
    def sine(x, t):
        return np.sin(x + t)

    spec = product_potential([[(l, sine)] for l in range(3)], 3, 4.0, kind="s")
    pts = rng.uniform(-4, 4, size=(20, 3))
    assert np.array_equal(complete(spec, pts, 0.5),
                          np.sin(pts + 0.5).sum(axis=1))
    # a declared confinement adds to the complete potential only
    confined = dataclasses.replace(spec, harmonic_part=0.25)
    assert np.max(np.abs(complete(confined, pts, 0.5)
                         - complete(spec, pts, 0.5)
                         - 0.25 * (pts ** 2).sum(axis=1))) < 1e-13
    assert smooth_remainder(confined) == spec
    got, want = interpolate(confined, 5, 0.5), interpolate(spec, 5, 0.5)
    assert np.array_equal(got.degrees, want.degrees)
    assert np.array_equal(got.coeffs, want.coeffs)


# -- the product route --------------------------------------------------------


def never_called(pts, t):
    raise AssertionError("this function must not be called")


@pytest.mark.parametrize("dim", [13, 20])
def test_henon_heiles_interpolates_without_its_evaluator(dim):
    # its tensor grid at degree 3 would hold 4**dim >= 67108864 points
    spec = dataclasses.replace(henon_heiles_perturbed(dim),
                               evaluator=never_called)
    # y_l**2 y_{l+1} and y_{l+1}**3 share the T_1 row on axis l + 1, and
    # the drive on the first axis vanishes at t = 0
    assert interpolate(spec, 3, time=0.7).nterms == 3 * dim - 2
    assert interpolate(spec, 3, time=0.0).nterms == 3 * dim - 3


def assert_matches_tensor_route(spec, degree, time):
    got = interpolate(spec, degree, time=time)
    want = interpolate(custom_potential(spec.evaluator, spec.dim,
                                        spec.halfwidth), degree, time=time)
    assert np.array_equal(got.degrees, want.degrees)
    scale = float(np.max(np.abs(want.coeffs)))
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * scale


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_henon_heiles_product_route_matches_tensor_route(dim):
    spec = henon_heiles_perturbed(dim)
    for t in (0.0, 0.7):
        assert_matches_tensor_route(spec, 3, t)


def test_product_on_non_adjacent_axes_matches_tensor_route():
    def sine(x, t):
        return np.sin(x / 4.0 + t)

    def cosine(x, t):
        return np.cos(x / 4.0)

    spec = product_potential([[(0, sine), (2, gaussian_factor)],
                              [(1, cosine)]], 3, 8.0)
    for degree in (3, 8):
        for t in (0.0, 0.3):
            assert_matches_tensor_route(spec, degree, t)
    mixed = interpolate(spec, 8).degrees
    assert not np.any(mixed[:, 1] * (mixed[:, 0] + mixed[:, 2]))


@pytest.mark.parametrize("axes", [[1, 1], [0, 3], [-1]])
def test_product_potential_refuses_repeated_or_outside_axes(axes):
    with pytest.raises(ValueError, match="product axes"):
        product_potential([[(0, gaussian_factor)],
                           [(l, gaussian_factor) for l in axes]], 3, 8.0)


def test_oversized_product_is_refused_before_any_factor_is_called():
    # nine factors at degree 8 would hold 9**9 coefficients
    spec = product_potential([[(l, never_called) for l in range(9)]], 9,
                             16.0)
    with pytest.raises(ValueError, match="^387420489 interpolation grid"):
        interpolate(spec, 8)
