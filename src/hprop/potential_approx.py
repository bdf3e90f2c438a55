"""Smooth potentials and their tensor Chebyshev surrogates.

The Galerkin machinery applies not the potential itself but a polynomial
surrogate

    W_pol(x, t) = sum_r alpha_r(t) * prod_l T_{r_l}(x_l / L),

obtained by interpolation at the Chebyshev-Gauss points
x_i = L * cos(pi (2i + 1) / (2R + 2)) per axis, where R is the maximal
per-axis degree.  A potential declared as a sum of products of univariate
factors (``products``, as every bundled one is) is interpolated factor by
factor on the R+1 nodes of one axis, so no (R+1)**dim grid is built; any
other is evaluated on the full tensor grid in one call.  Both routes drop
coefficients below 1e-14 times the largest magnitude.  Time enters through
the potential alone; a time-dependent problem simply re-interpolates at
every requested t.

A spec holds the smooth part W that its surrogate interpolates and declares
the quadratic confinement q * sum_l x_l**2 apart from it, since operator
code applies x**2 exactly through ladder products.  The complete potential
V = W + q * sum_l x_l**2 enters H = D + V with D the oscillator diagonal:

* ``torsional``      W = sum_l (1 - cos(x_l / L)),  q = 0
* ``torsional-ho``   the same W,                    q = -1/2
* ``henon-heiles``   chained cubic couplings with a sin(t)**2 drive on x_1,
                     q = 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .index_set import check_size

DROP_THRESHOLD = 1e-14
_CUBE_SLACK = 1e-12
_VALIDATION_SEED = 0

TORSIONAL = "torsional"
TORSIONAL_HO = "torsional-ho"
HENON_HEILES = "henon-heiles"


@dataclass(frozen=True)
class PotentialSpec:
    """A potential V(x, t) = W(x, t) + q * sum_l x_l**2 on [-L, L]**dim.

    ``evaluator`` maps (points, t) -> values of the smooth part W, with
    points of shape (npts, dim) and scalar t.

    ``harmonic_part`` is the declared q.  Galerkin entries of x**2 are
    closed-form ladder products, so operator code applies q * sum x**2
    exactly and interpolates W alone; the huge Chebyshev coefficients of
    q x**2 (order q L**2 / 2) would otherwise dominate every
    reduction-error budget.

    ``products``, when set, declares W(x, t) = sum_p prod_{(l, f) in p}
    f(x_l, t), each axis at most once per product, with every factor f
    elementwise on arrays of any shape; ``interpolate`` then works from the
    factors alone.  ``product_potential`` builds such specs.

    The complete potential is V(x, t) = evaluator(x, t)
    + harmonic_part * sum_l x_l**2.
    """

    kind: str
    dim: int
    halfwidth: float
    evaluator: Callable[[np.ndarray, float], np.ndarray]
    harmonic_part: float = 0.0
    products: tuple[tuple[tuple[int, Callable], ...], ...] | None = None


def product_potential(products, dim: int, halfwidth: float,
                      kind: str = "products") -> PotentialSpec:
    """W(x, t) = sum_p prod_{(l, f) in p} f(x_l, t) for elementwise factors f;
    each product is a sequence of (axis, factor) pairs on distinct axes."""
    products = tuple(tuple((int(l), f) for l, f in p) for p in products)
    for axes in ([l for l, _ in p] for p in products):
        if len(set(axes) & set(range(dim))) < len(axes):
            raise ValueError(f"product axes {axes} repeat or leave 0..{dim - 1}")

    def ev(pts, t):
        return sum((math.prod((f(pts[:, l], t) for l, f in p), start=1.0)
                    for p in products), np.zeros(pts.shape[0]))

    return PotentialSpec(kind, dim, float(halfwidth), ev, products=products)


def smooth_remainder(spec: PotentialSpec) -> PotentialSpec:
    """The smooth part of ``spec`` alone, with no declared confinement."""
    return replace(spec, harmonic_part=0.0)


def torsional(dim: int, halfwidth: float = 16.0) -> PotentialSpec:
    L = float(halfwidth)

    def w(x, t):
        return 1.0 - np.cos(x / L)

    return product_potential([[(l, w)] for l in range(dim)], dim, L, TORSIONAL)


def torsional_minus_harmonic(dim: int, halfwidth: float = 16.0) -> PotentialSpec:
    """The torsional smooth part with the confinement -(1/2) sum_l x_l**2."""
    return replace(torsional(dim, halfwidth), kind=TORSIONAL_HO,
                   harmonic_part=-0.5)


def henon_heiles_perturbed(dim: int, halfwidth: float = 16.0) -> PotentialSpec:
    """W = sum_l (y_l**2 y_{l+1} - y_{l+1}**3 / 3) - sin(t)**2 y_1 in the
    stretched coordinates y_l = x_l / L, one product per term.  The
    confinement that localizes the wavepacket lives in the oscillator
    reference operator, so the surrogate sees only the anharmonic part."""
    L = float(halfwidth)

    def square(x, t):
        return (x / L) ** 2

    def linear(x, t):
        return x / L

    def cubic(x, t):
        return -(x / L) ** 3 / 3.0

    def drive(x, t):
        return -math.sin(t) ** 2 * (x / L)

    products = [[(0, drive)]]
    for l in range(dim - 1):
        products += [[(l, square), (l + 1, linear)], [(l + 1, cubic)]]
    return product_potential(products, dim, L, HENON_HEILES)


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
    if dim <= 2:
        g = np.linspace(-halfwidth, halfwidth, 33)
        return np.stack(np.meshgrid(*[g] * dim, indexing="ij"),
                        axis=-1).reshape(-1, dim)
    rng = np.random.default_rng(_VALIDATION_SEED)
    return rng.uniform(-halfwidth, halfwidth, size=(33 * 33, dim))


def _finite(vals: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise ValueError("potential evaluated to a non-finite value on the "
                         "interpolation grid")
    return vals


def _significant(coeffs: np.ndarray) -> np.ndarray:
    # all False when every coefficient is zero, or there is none
    amax = float(np.max(np.abs(coeffs), initial=0.0))
    return np.abs(coeffs) > DROP_THRESHOLD * amax


def _product_terms(products, C: np.ndarray, nodes: np.ndarray, dim: int,
                   time: float) -> tuple[np.ndarray, np.ndarray]:
    # Each distinct factor is interpolated once, on the nodes of one axis.
    # A product's coefficients are the outer product of its factors',
    # placed on its axes; equal rows of different products are summed
    # exactly rounded, and the rows come out in lexicographic order.
    factors, sums = {}, {}
    for p in products:
        block = np.ones(())
        for _, f in p:
            if f not in factors:
                factors[f] = C @ _finite(np.asarray(f(nodes, time), float))
            block = np.multiply.outer(block, factors[f])
        rows = np.zeros((block.size, dim), dtype=np.int64)
        rows[:, [l for l, _ in p]] = \
            np.indices(block.shape).reshape(len(p), block.size).T
        for row, c in zip(map(tuple, rows.tolist()), block.ravel().tolist()):
            sums.setdefault(row, []).append(c)
    keys = sorted(sums)
    return (np.array(keys, dtype=np.int64).reshape(len(keys), dim),
            np.array([math.fsum(sums[k]) for k in keys]))


def interpolate(spec: PotentialSpec, degree: int, time: float = 0.0) -> ChebApprox:
    """Tensor Chebyshev-Gauss interpolation of ``spec`` at one instant.

    ``degree`` is the maximal per-axis degree R; each axis carries R+1 nodes
    L*cos(pi (2i+1) / (2R+2)).  Coefficients come from the discrete cosine
    orthogonality of the node family, applied axis by axis.  A spec with
    ``products`` evaluates each distinct factor on the R+1 nodes of one axis
    and takes each product's (R+1)**len(p) coefficients as an outer
    product; any other is evaluated on the whole (R+1)**dim grid in one
    call.  Those sizes and the (R+1)**2 cosine matrix are checked before any
    evaluation.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    R, N, L, time = degree, spec.dim, spec.halfwidth, float(time)
    n = R + 1
    for k in [N] if spec.products is None else map(len, spec.products):
        check_size(n ** k, "interpolation grid points")
    check_size(n * n, "cosine matrix entries")
    theta = np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    # C[k, i] = (2 - delta_{k0})/n * cos(k * theta_i)
    C = np.cos(np.arange(n)[:, None] * theta[None, :]) * (2.0 / n)
    C[0] *= 0.5
    nodes = L * np.cos(theta)
    if spec.products is not None:
        degrees, coeffs = _product_terms(spec.products, C, nodes, N, time)
        mask = _significant(coeffs)
        degrees = degrees[mask]
    else:
        # axis-major, so per-axis arithmetic runs on contiguous columns
        grid = np.empty((N,) + (n,) * N)
        for a in range(N):
            grid[a] = nodes.reshape((n,) + (1,) * (N - 1 - a))
        vals = spec.evaluator(grid.reshape(N, -1).T, time)
        coeffs = _finite(np.asarray(vals, float)).reshape((n,) * N)
        for _ in range(N):
            coeffs = np.tensordot(coeffs, C, axes=([0], [1]))
        mask = _significant(coeffs)
        degrees = np.argwhere(mask).astype(np.int64)     # lexicographic
    kept = coeffs[mask]
    degrees.setflags(write=False)
    kept.setflags(write=False)
    return ChebApprox(N, R, L, time, degrees, kept)


def fit_error(spec: PotentialSpec, approx: ChebApprox) -> float:
    """Max-norm error of ``approx`` against the smooth part of ``spec`` at
    the surrogate's time, on a fixed sample of the box (33 points in 1-D,
    1089 otherwise)."""
    vpts = _validation_points(approx.dim, approx.halfwidth)
    resid = eval_interpolant(approx, vpts) - spec.evaluator(vpts, approx.time)
    return float(np.max(np.abs(resid)))


def eval_interpolant(approx: ChebApprox, x) -> np.ndarray:
    """Evaluate the surrogate at points inside the box (shape (npts, dim))."""
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if pts.shape[1] != approx.dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, "
                         f"surrogate has {approx.dim}")
    y = pts / approx.halfwidth
    if np.any(np.abs(y) > 1.0 + _CUBE_SLACK):
        raise ValueError("points outside the surrogate's box")
    prod = np.ones((approx.nterms, pts.shape[0]), dtype=np.float64)
    for l in range(approx.dim):
        table = chebvander(np.clip(y[:, l], -1.0, 1.0), approx.degree).T
        prod *= table[approx.degrees[:, l], :]
    out = approx.coeffs @ prod
    return out[0] if np.asarray(x).ndim == 1 else out
