"""Measurement of the three error mechanisms in the fast application chain.

Three distinct things can go wrong between the exact Galerkin right-hand side
and what the matrix-free propagation actually computes, and this module
measures each of them in isolation on decay-profile test vectors:

* quadrature error: the order-K Gauss-Hermite Galerkin matrix differs from
  the exact-integral Galerkin matrix of the surrogate once basis orders and
  polynomial degrees together exceed the exactness window;
* reduction error: on a pruned index set the insertion algorithm drops
  recurrence paths through missing neighbors, so it no longer reproduces the
  restriction of the full-cube operator;
* Lanczos perturbation: feeding the pruned-set fast matvec into a Krylov
  exponential perturbs basis and tridiagonal matrix together, shifting the
  computed propagator away from the one built on the assembled matrix.

The propagation study at the end combines them: it marches the coefficient
ODE over [0, 1] with fast matvecs in a Magnus-Krylov stepper, against an
assembled-matrix gl2 reference whose step count doubles from 20 until two
successive endpoints agree to 1e-12 relative; past 10 240, RuntimeError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fast_apply import fast_algorithm, get_applier
from .galerkin_oracle import assemble_exact_galerkin, check_dense, \
    assemble_oscillator_diagonal, assemble_quad_galerkin, assemble_square_sum
from .hermite_basis import gauss_hermite_rule
from .index_set import CoeffVector, IndexSet, build_full, extend, restrict
from .krylov_propagator import MagnusScheme, MatVec, krylov_exponential, \
    lanczos, propagate_magnus
from .potential_approx import ChebApprox, PotentialSpec, interpolate


def make_decay_vector(iset: IndexSet, beta: int) -> CoeffVector:
    """Deterministic test vector v_k = prod_l max(k_l, 1)^(-beta), rescaled
    to unit Euclidean norm; the zero multi-index carries the largest
    component."""
    if beta < 1:
        raise ValueError(f"beta must be a positive integer, got {beta}")
    base = np.maximum(iset.indices, 1).astype(np.float64)
    data = np.prod(base ** (-float(beta)), axis=1)
    data = data / np.linalg.norm(data)
    return CoeffVector(iset, data)


def quadrature_error(iset: IndexSet, approx: ChebApprox,
                     v: CoeffVector) -> np.ndarray:
    """Magnitudes of the components of (W_exact - W_quadrature) v on the
    given set, in its canonical ordering.

    Both matrices come from the dense oracle; the quadrature one uses the
    rule of order K that the insertion algorithm implicitly realizes, the
    exact one an over-resolved rule that integrates every entry exactly.
    Both are held at once, so both count against the dense cap.
    """
    check_dense(iset.size, 2)
    wx = assemble_exact_galerkin(iset, approx).matrix
    wx -= assemble_quad_galerkin(iset, approx,
                                 gauss_hermite_rule(iset.bound)).matrix
    return np.abs(wx @ v.data)


def reduction_error(iset: IndexSet, approx: ChebApprox,
                    v: CoeffVector) -> np.ndarray:
    """Magnitudes of the components of fast(set) v minus the restricted
    full-cube application, in the set's canonical ordering.

    No dense matrices are involved: on the full cube the insertion algorithm
    is exact for the surrogate under order-K quadrature, so extending v by
    zeros, applying on the cube, and restricting back isolates exactly the
    contributions lost to pruned recurrence paths.
    """
    full = build_full(iset.dim, iset.bound)
    on_set = fast_algorithm(iset, approx, v)
    on_full = fast_algorithm(full, approx, extend(v, full))
    return np.abs(on_set.data - restrict(on_full, iset).data)


def reduction_local_mask(iset: IndexSet, approx: ChebApprox) -> np.ndarray:
    """Boolean mask of indices whose reduction-error component must vanish.

    A component at j is untouched by pruning when j plus every active degree
    tuple r still lies in the (downward closed) set: every recurrence path
    the insertion algorithm walks then stays inside.
    """
    mask = np.ones(iset.size, dtype=bool)
    for r in approx.degrees:
        mask &= iset.locate(iset.indices + r) >= 0
    return mask


# -- Hamiltonian matvec factories ---------------------------------------------


def _check_dims(iset: IndexSet, potential: PotentialSpec) -> None:
    if potential.dim != iset.dim:
        raise ValueError(f"potential dimension {potential.dim} does not "
                         f"match index set dimension {iset.dim}")


@dataclass
class FastHamiltonian:
    """Matrix-free A(t) = D + W_pol(t) through the insertion algorithm.

    The potential's declared quadratic confinement goes through the exact
    banded ladder entries; only the smooth part is interpolated and
    applied as a Chebyshev surrogate.  Pushing q x**2 through the surrogate
    instead would attach its order-(q L**2 / 2) coefficients to every pruned
    recurrence path and swamp the reduction error of the interesting part.
    """

    iset: IndexSet
    potential: PotentialSpec
    degree: int

    def __post_init__(self):
        _check_dims(self.iset, self.potential)

    def approx_at(self, t: float) -> ChebApprox:
        return interpolate(self.potential, self.degree, time=t)

    def matvec_at(self, t: float) -> MatVec:
        appl = get_applier(self.iset)
        approx = self.approx_at(t)
        q = self.potential.harmonic_part
        if q == 0.0:
            return lambda v: appl.apply_hamiltonian(approx, v)

        def matvec(v: np.ndarray) -> np.ndarray:
            out = appl.apply_hamiltonian(approx, v)
            out += q * appl.apply_square_sum(v)
            return out

        return matvec


@dataclass
class OracleHamiltonian:
    """Assembled A(t) = D + W_pol(t) built from dense quadrature matrices.

    Mirrors FastHamiltonian exactly: quadratic confinement through the exact
    banded matrix, smooth part through order-K quadrature assembly.
    Matrices for each Chebyshev degree tuple are assembled once and cached;
    at a given time the surrogate coefficients recombine them, so repeated
    calls cost one small dense update plus matvecs.
    """

    iset: IndexSet
    potential: PotentialSpec
    degree: int
    _terms: dict = field(init=False, default_factory=dict, repr=False)
    _static: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        _check_dims(self.iset, self.potential)

    def term_matrix(self, tup: tuple[int, ...]) -> np.ndarray:
        mat = self._terms.get(tup)
        if mat is None:
            one = ChebApprox(
                dim=self.iset.dim, degree=max(max(tup), 0),
                halfwidth=self.potential.halfwidth, time=0.0,
                degrees=np.asarray([tup], dtype=np.int64),
                coeffs=np.asarray([1.0]))
            rule = gauss_hermite_rule(self.iset.bound)
            mat = assemble_quad_galerkin(self.iset, one, rule).matrix
            self._terms[tup] = mat
        return mat

    def matrix_at(self, t: float) -> np.ndarray:
        approx = interpolate(self.potential, self.degree, time=t)
        # every term matrix held or needed, the static part, the sum and
        # the sum's complex copy in matvec_at, which is twice the size
        needed = self._terms.keys() | {tup for tup, _ in approx.terms}
        check_dense(self.iset.size, len(needed) + 4)
        if self._static is None:
            base = assemble_oscillator_diagonal(self.iset).matrix
            q = self.potential.harmonic_part
            if q != 0.0:
                base = base + q * assemble_square_sum(self.iset).matrix
            self._static = base
        out = self._static.copy()
        for tup, coeff in approx.terms:
            out += coeff * self.term_matrix(tup)
        return out

    def matvec_at(self, t: float) -> MatVec:
        # Krylov vectors are complex; one conversion per instant spares
        # every matvec a real-to-complex copy of the matrix
        mat = self.matrix_at(t).astype(np.complex128)
        return lambda v: mat @ v


# -- single-step Lanczos studies ------------------------------------------------


def lanczos_perturbation_error(iset: IndexSet, potential: PotentialSpec,
                               degree: int, beta: int, steps: Sequence[float],
                               krylov_steps: int) -> list[float]:
    """Distance between Krylov exponentials built on oracle vs fast matvecs.

    Measures || V exp(-i h T) e_1 - V~ exp(-i h T~) e_1 ||_2 at t = 0 for
    each step size h in ``steps``, from the normalized beta-decay vector,
    where the tilded factorization uses the insertion algorithm on the
    pruned set and the plain one uses the assembled matrix.  Each operator
    is factored once: the Krylov space from v does not depend on h, so both
    factorizations serve every step size.
    """
    v = make_decay_vector(iset, beta).data.astype(np.complex128)
    nrm = float(np.linalg.norm(v))
    plain = lanczos(OracleHamiltonian(iset, potential, degree).matvec_at(0.0),
                    v, krylov_steps)
    fast = lanczos(FastHamiltonian(iset, potential, degree).matvec_at(0.0),
                   v, krylov_steps)
    return [float(np.linalg.norm(krylov_exponential(plain, nrm, h)
                                 - krylov_exponential(fast, nrm, h)))
            for h in steps]


# -- full propagation study -----------------------------------------------------


REFERENCE_TOL = 1e-12
REFERENCE_KRYLOV = 12
REFERENCE_MIN_STEPS = 20
REFERENCE_MAX_STEPS = 10_240


def build_reference(oracle: OracleHamiltonian, y0: np.ndarray) -> np.ndarray:
    """Endpoint at t = 1 from assembled-matrix gl2 steps, converged by doubling.

    The step count doubles from REFERENCE_MIN_STEPS until two successive
    endpoints agree within REFERENCE_TOL * max|y0| in the max norm; scheme
    and Krylov error both shrink with the step, so that difference bounds
    both.  Returns the finer endpoint; RuntimeError past REFERENCE_MAX_STEPS.
    The oracle is the caller's, so its term matrices are assembled once.
    """
    tol = REFERENCE_TOL * float(np.max(np.abs(y0)))
    nsteps, coarse = REFERENCE_MIN_STEPS, None
    while nsteps <= REFERENCE_MAX_STEPS:
        fine = propagate_magnus(MagnusScheme.from_name("gl2"),
                                oracle.matvec_at, y0, 0.0, 1.0, nsteps,
                                REFERENCE_KRYLOV)
        if coarse is not None:
            diff = float(np.max(np.abs(fine - coarse)))
            if diff <= tol:
                return fine
        coarse, nsteps = fine, 2 * nsteps
    raise RuntimeError(
        f"reference did not converge: {nsteps // 2} and {nsteps // 4} gl2 "
        f"steps differ by {diff:.3e}, above the tolerance {tol:.3e}")


def propagate_and_compare(iset: IndexSet, potential: PotentialSpec,
                          degree: int, beta: int, scheme: MagnusScheme,
                          step_counts: Sequence[int], krylov_steps: int, *,
                          reference: np.ndarray | None = None
                          ) -> list[tuple[float, float]]:
    """March the ODE over [0, 1] with fast matvecs; endpoint errors per step.

    Returns one (scheme error, perturbation error) pair per step count.  The
    run is repeated with assembled-matrix matvecs under the same scheme; the
    max-norm distance between the two endpoint states is the perturbation
    error, while the distance to the reference (built here on the same
    oracle if not supplied) is the total scheme error.
    """
    y0 = make_decay_vector(iset, beta).data.astype(np.complex128)
    fast = FastHamiltonian(iset, potential, degree)
    oracle = OracleHamiltonian(iset, potential, degree)
    if reference is None:
        reference = build_reference(oracle, y0)
    errors = []
    for nsteps in step_counts:
        y_fast = propagate_magnus(scheme, fast.matvec_at, y0, 0.0, 1.0,
                                  nsteps, krylov_steps)
        y_plain = propagate_magnus(scheme, oracle.matvec_at, y0, 0.0, 1.0,
                                   nsteps, krylov_steps)
        errors.append((float(np.max(np.abs(y_fast - reference))),
                       float(np.max(np.abs(y_fast - y_plain)))))
    return errors
