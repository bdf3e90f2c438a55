"""Smooth potentials and their tensor Chebyshev surrogates.

The Galerkin machinery applies not the potential itself but a polynomial
surrogate

    W_pol(x, t) = sum_r alpha_r(t) * prod_l T_{r_l}(x_l / L),

obtained by interpolation at the Chebyshev-Gauss points
x_i = L * cos(pi (2i + 1) / (2R + 2)) per axis, where R is the maximal
per-axis degree.  A potential declared additively separable (``axis_term``)
is interpolated in 1-D on those R+1 nodes, so its surrogate carries only
axis-aligned terms and no (R+1)**dim grid is built.  Any other potential is
evaluated on the full tensor grid.  On both routes coefficients below 1e-14
times the largest magnitude are dropped.  Time enters through the potential
alone; a time-dependent problem simply re-interpolates at every requested t.

Evaluators must be pointwise: each output row depends only on its own
input row.  The tensor route calls one several times per instant, on
consecutive blocks of the (R+1)**dim grid of at most ``GRID_BLOCK`` points,
and the points may arrive in any memory layout.

A spec holds the smooth part W that its surrogate interpolates and declares
the quadratic confinement q * sum_l x_l**2 apart from it, since operator
code applies x**2 exactly through ladder products.  The complete potential
V = W + q * sum_l x_l**2 enters H = D + V with D the oscillator diagonal:

* ``torsional``      W = sum_l (1 - cos(x_l / L)),  q = 0
* ``torsional-ho``   the same W,                    q = -1/2
* ``henon-heiles``   chained cubic couplings with a sin(t)**2 drive on x_1,
                     q = 0

The first two are declared separable; Henon-Heiles is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .index_set import check_size

DROP_THRESHOLD = 1e-14
GRID_BLOCK = 8192           # grid points per evaluator call in interpolate
_CUBE_SLACK = 1e-12
_VALIDATION_SEED = 0

TORSIONAL = "torsional"
TORSIONAL_HO = "torsional-ho"
HENON_HEILES = "henon-heiles"


def chebyshev_values(y, max_degree: int) -> np.ndarray:
    """T_0(y) .. T_R(y) on [-1, 1]; shape (R+1,) scalar / (R+1, len(y)) array."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    y = np.asarray(y, dtype=np.float64)
    scalar = y.ndim == 0
    yy = np.atleast_1d(y)
    if np.any(np.abs(yy) > 1.0 + _CUBE_SLACK):
        raise ValueError("argument outside [-1, 1]")
    out = chebvander(np.clip(yy, -1.0, 1.0), max_degree).T
    return out[:, 0] if scalar else out


@dataclass(frozen=True)
class PotentialSpec:
    """A potential V(x, t) = W(x, t) + q * sum_l x_l**2 on [-L, L]**dim.

    ``evaluator`` maps (points, t) -> values of the smooth part W, with
    points of shape (npts, dim) and scalar t.  It must be pointwise, since
    interpolation may call it on several blocks of grid points per instant,
    and must accept points in any memory layout.

    ``harmonic_part`` is the declared q.  Galerkin entries of x**2 are
    closed-form ladder products, so operator code applies q * sum x**2
    exactly and interpolates W alone; the huge Chebyshev coefficients of
    q x**2 (order q L**2 / 2) would otherwise dominate every
    reduction-error budget.

    ``axis_term``, when set, declares W additively separable:
    W(x, t) = sum_l w(x_l, t) with the same univariate w on every axis.  It
    maps (coordinates, t) -> values elementwise, for coordinate arrays of
    any shape, and ``interpolate`` then works from w alone.  Build such
    specs with ``separable_potential``, which derives ``evaluator`` from w.

    Calling the spec gives the complete potential V.
    """

    kind: str
    dim: int
    halfwidth: float
    evaluator: Callable[[np.ndarray, float], np.ndarray]
    harmonic_part: float = 0.0
    axis_term: Callable[[np.ndarray, float], np.ndarray] | None = None

    def __call__(self, x, t: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, "
                             f"potential has {self.dim}")
        vals = np.asarray(self.evaluator(pts, float(t)), dtype=np.float64)
        vals = vals + self.harmonic_part * (pts * pts).sum(axis=1)
        return vals[0] if np.asarray(x).ndim == 1 else vals


def separable_potential(axis_term, dim: int, halfwidth: float,
                        kind: str = "separable") -> PotentialSpec:
    """W(x, t) = sum_l w(x_l, t) for the elementwise univariate w = axis_term."""

    def ev(pts, t):
        return axis_term(pts, t).sum(axis=-1)

    return PotentialSpec(kind, dim, float(halfwidth), ev, axis_term=axis_term)


def smooth_remainder(spec: PotentialSpec) -> PotentialSpec:
    """The smooth part of ``spec`` alone, with no declared confinement."""
    return replace(spec, harmonic_part=0.0)


def torsional(dim: int, halfwidth: float = 16.0) -> PotentialSpec:
    L = float(halfwidth)

    def w(x, t):
        return 1.0 - np.cos(x / L)

    return separable_potential(w, dim, L, TORSIONAL)


def torsional_minus_harmonic(dim: int, halfwidth: float = 16.0) -> PotentialSpec:
    """The torsional smooth part with the confinement -(1/2) sum_l x_l**2."""
    return replace(torsional(dim, halfwidth), kind=TORSIONAL_HO,
                   harmonic_part=-0.5)


def henon_heiles_perturbed(dim: int, halfwidth: float = 16.0) -> PotentialSpec:
    """Chained cubic couplings with a time-periodic linear drive on axis 1.

    Everything is expressed in the stretched coordinates y_l = x_l / L,
    including the drive, whose amplitude oscillates as sin(t)^2.  The
    quadratic confinement that localizes the wavepacket is not part of this
    potential; it lives in the oscillator reference operator, so the
    surrogate only ever sees the gentle anharmonic part.
    """
    L = float(halfwidth)

    def ev(pts, t):
        y = pts / L
        core = (y[:, :-1] ** 2 * y[:, 1:] - y[:, 1:] ** 3 / 3.0).sum(axis=-1)
        return core - math.sin(t) ** 2 * y[:, 0]

    return PotentialSpec(HENON_HEILES, dim, L, ev)


def custom_potential(evaluator, dim: int, halfwidth: float,
                     kind: str = "custom") -> PotentialSpec:
    return PotentialSpec(kind, dim, float(halfwidth), evaluator)


_FACTORIES = {
    TORSIONAL: torsional,
    TORSIONAL_HO: torsional_minus_harmonic,
    HENON_HEILES: henon_heiles_perturbed,
}


def potential_by_name(name: str, dim: int, halfwidth: float = 16.0) -> PotentialSpec:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown potential {name!r}; choose from "
                         f"{sorted(_FACTORIES)}") from None
    return factory(dim, halfwidth)


@dataclass(frozen=True)
class ChebApprox:
    """Sparse tensor Chebyshev surrogate of a potential at one time.

    ``degrees`` has shape (nterms, dim) and is sorted lexicographically;
    ``coeffs`` are the matching real coefficients.
    """

    dim: int
    degree: int
    halfwidth: float
    time: float
    degrees: np.ndarray
    coeffs: np.ndarray

    @property
    def terms(self) -> list[tuple[tuple[int, ...], float]]:
        return [(tuple(row), float(a))
                for row, a in zip(self.degrees.tolist(), self.coeffs)]

    @property
    def nterms(self) -> int:
        return self.coeffs.shape[0]


def _validation_points(dim: int, halfwidth: float) -> np.ndarray:
    if dim == 1:
        return np.linspace(-halfwidth, halfwidth, 33)[:, None]
    if dim == 2:
        g = np.linspace(-halfwidth, halfwidth, 33)
        gx, gy = np.meshgrid(g, g, indexing="ij")
        return np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
    rng = np.random.default_rng(_VALIDATION_SEED)
    return rng.uniform(-halfwidth, halfwidth, size=(33 * 33, dim))


def _grid_values(evaluator, nodes: np.ndarray, dim: int,
                 time: float) -> np.ndarray:
    # The tensor grid in row-major order, one block of whole trailing
    # sub-grids (at most GRID_BLOCK points) per evaluator call.  The block
    # is an axis-major (dim, B) buffer handed over transposed, so per-axis
    # arithmetic runs on contiguous columns and stays cache-sized.  Every
    # coordinate is rewritten before each call, so nothing an evaluator
    # does to its argument reaches the next block.
    n = nodes.shape[0]
    inner = 0
    while inner < dim and n ** (inner + 1) <= GRID_BLOCK:
        inner += 1
    outer, size = dim - inner, n ** inner
    block = np.empty((dim, size), dtype=np.float64)
    sub = block[outer:].reshape((inner,) + (n,) * inner)
    vals = np.empty(n ** dim, dtype=np.float64)
    for b, lead in enumerate(np.ndindex((n,) * outer)):
        block[:outer] = nodes[list(lead), None]
        for j in range(inner):
            sub[j] = nodes.reshape((n,) + (1,) * (inner - 1 - j))
        out = np.asarray(evaluator(block.T, time), dtype=np.float64)
        vals[b * size:(b + 1) * size] = out.reshape(size)
    return vals


def _finite(vals: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise ValueError("potential evaluated to a non-finite value on the "
                         "interpolation grid")
    return vals


def _significant(coeffs: np.ndarray) -> np.ndarray:
    # all False when every coefficient is zero
    return np.abs(coeffs) > DROP_THRESHOLD * float(np.max(np.abs(coeffs)))


def _axis_terms(a: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    # Surrogate of sum_l w(x_l) from the 1-D coefficients a of w, rows in
    # lexicographic order: the constant dim * a_0, then a_1 .. a_R on the
    # last axis, on the one before it, and so on to the first.
    R = a.shape[0] - 1
    degrees = np.zeros((1 + dim * R, dim), dtype=np.int64)
    degrees[np.arange(1, 1 + dim * R), np.repeat(np.arange(dim)[::-1], R)] = \
        np.tile(np.arange(1, R + 1), dim)
    coeffs = np.concatenate([[dim * a[0]], np.tile(a[1:], dim)])
    return degrees, coeffs


def interpolate(spec: PotentialSpec, degree: int, time: float = 0.0) -> ChebApprox:
    """Tensor Chebyshev-Gauss interpolation of ``spec`` at one instant.

    ``degree`` is the maximal per-axis degree R; each axis carries R+1 nodes
    L*cos(pi (2i+1) / (2R+2)).  Coefficients come from the discrete cosine
    orthogonality of the node family, applied axis by axis.  A separable
    spec evaluates its ``axis_term`` on the R+1 nodes of one axis only; any
    other is evaluated on the whole (R+1)**dim grid.  The grid and the
    (R+1)**2 cosine matrix are size-checked before either is built.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    R, N, L = degree, spec.dim, spec.halfwidth
    n = R + 1
    if spec.axis_term is None:
        check_size(n ** N, "interpolation grid points")
    check_size(n * n, "cosine matrix entries")
    theta = np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    # C[k, i] = (2 - delta_{k0})/n * cos(k * theta_i)
    C = np.cos(np.arange(n)[:, None] * theta[None, :]) * (2.0 / n)
    C[0] *= 0.5
    nodes = L * np.cos(theta)
    if spec.axis_term is not None:
        w = np.asarray(spec.axis_term(nodes, float(time)), dtype=np.float64)
        degrees, coeffs = _axis_terms(C @ _finite(w), N)
        mask = _significant(coeffs)
        degrees = degrees[mask]
    else:
        vals = _grid_values(spec.evaluator, nodes, N, float(time))
        coeffs = _finite(vals).reshape((n,) * N)
        for _ in range(N):
            coeffs = np.tensordot(coeffs, C, axes=([0], [1]))
        mask = _significant(coeffs)
        degrees = np.argwhere(mask).astype(np.int64)     # lexicographic
    kept = coeffs[mask]
    degrees.setflags(write=False)
    kept.setflags(write=False)
    return ChebApprox(N, R, L, float(time), degrees, kept)


def fit_error(spec: PotentialSpec, approx: ChebApprox) -> float:
    """Max-norm error of ``approx`` against the smooth part of ``spec`` at
    the surrogate's time, on a fixed sample of the box (33 points in 1-D,
    1089 otherwise)."""
    vpts = _validation_points(approx.dim, approx.halfwidth)
    resid = eval_interpolant(approx, vpts) - spec.evaluator(vpts, approx.time)
    return float(np.max(np.abs(resid))) if resid.size else 0.0


def eval_interpolant(approx: ChebApprox, x) -> np.ndarray:
    """Evaluate the surrogate at points inside the box (shape (npts, dim))."""
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if pts.shape[1] != approx.dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, "
                         f"surrogate has {approx.dim}")
    out = np.zeros(pts.shape[0], dtype=np.float64)
    if approx.nterms == 0:
        return out[0] if np.asarray(x).ndim == 1 else out
    prod = np.ones((approx.nterms, pts.shape[0]), dtype=np.float64)
    for l in range(approx.dim):
        table = chebyshev_values(pts[:, l] / approx.halfwidth, approx.degree)
        prod *= table[approx.degrees[:, l], :]
    out = approx.coeffs @ prod
    return out[0] if np.asarray(x).ndim == 1 else out
