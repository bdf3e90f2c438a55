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
ODE with fast matvecs inside a Magnus-Krylov stepper and compares against a
tiny-step reference built on assembled-matrix matvecs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .fast_apply import fast_algorithm, get_applier
from .galerkin_oracle import assemble_exact_galerkin, assemble_quad_galerkin, \
    assemble_square_sum
from .hermite_basis import gauss_hermite_rule
from .index_set import CoeffVector, IndexSet, build_full, extend, restrict
from .krylov_propagator import MagnusScheme, MatVec, lanczos, \
    expm_tridiag_column, lanczos_exp_apply, propagate_magnus
from .potential_approx import ChebApprox, PotentialSpec, interpolate, \
    smooth_remainder

MEASURE_QUADRATURE = "quadrature"
MEASURE_REDUCTION = "reduction"


def make_decay_vector(iset: IndexSet, beta: int, *,
                      normalized: bool = True) -> CoeffVector:
    """Deterministic test vector v_k = prod_l max(k_l, 1)^(-beta).

    The zero multi-index carries the largest component; normalization (on by
    default) rescales to unit Euclidean norm.
    """
    if beta < 1:
        raise ValueError(f"beta must be a positive integer, got {beta}")
    base = np.maximum(iset.indices, 1).astype(np.float64)
    data = np.prod(base ** (-float(beta)), axis=1)
    if normalized:
        data = data / np.linalg.norm(data)
    return CoeffVector(iset, data)


@dataclass(frozen=True)
class ErrorReport:
    """Componentwise error magnitudes over an index set, plus provenance."""

    iset: IndexSet
    components: np.ndarray
    metadata: Mapping[str, object]

    @property
    def max_norm(self) -> float:
        return float(np.max(self.components)) if self.components.size else 0.0

    def write_csv(self, path) -> None:
        cols = [f"k_{l + 1}" for l in range(self.iset.dim)] + ["magnitude"]
        with open(path, "w", newline="\n") as fh:
            for key in sorted(self.metadata):
                fh.write(f"# {key}={self.metadata[key]}\n")
            fh.write(f"# max_norm={self.max_norm:.17g}\n")
            fh.write(",".join(cols) + "\n")
            for row, mag in zip(self.iset.indices.tolist(), self.components):
                fh.write(",".join(str(k) for k in row) + f",{mag:.17g}\n")


def _report_metadata(iset: IndexSet, approx: ChebApprox, measure: str,
                     **extra) -> dict:
    md = {
        "measure": measure,
        "dim": iset.dim,
        "bound": iset.bound,
        "set_kind": iset.kind,
        "set_size": iset.size,
        "degree": approx.degree,
        "halfwidth": approx.halfwidth,
        "nterms": approx.nterms,
    }
    md.update(extra)
    return md


def quadrature_error(iset: IndexSet, approx: ChebApprox, v: CoeffVector, *,
                     force: bool = False) -> ErrorReport:
    """Components of (W_exact - W_quadrature) v on the given set.

    Both matrices come from the dense oracle; the quadrature one uses the
    rule of order K that the insertion algorithm implicitly realizes, the
    exact one an over-resolved rule that integrates every entry exactly.
    """
    rule = gauss_hermite_rule(iset.bound)
    wq = assemble_quad_galerkin(iset, approx, rule, force=force).matrix
    wx = assemble_exact_galerkin(iset, approx, force=force).matrix
    comp = np.abs((wx - wq) @ v.data)
    return ErrorReport(iset, comp,
                       _report_metadata(iset, approx, MEASURE_QUADRATURE))


def reduction_error(iset: IndexSet, approx: ChebApprox,
                    v: CoeffVector) -> ErrorReport:
    """Components of fast(set) v minus the restricted full-cube application.

    No dense matrices are involved: on the full cube the insertion algorithm
    is exact for the surrogate under order-K quadrature, so extending v by
    zeros, applying on the cube, and restricting back isolates exactly the
    contributions lost to pruned recurrence paths.
    """
    full = build_full(iset.dim, iset.bound)
    on_set = fast_algorithm(iset, approx, v)
    on_full = fast_algorithm(full, approx, extend(v, full))
    comp = np.abs(on_set.data - restrict(on_full, iset).data)
    return ErrorReport(iset, comp,
                       _report_metadata(iset, approx, MEASURE_REDUCTION,
                                        full_size=full.size))


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


@dataclass
class FastHamiltonian:
    """Matrix-free A(t) = D + W_pol(t) through the insertion algorithm.

    The potential's declared quadratic confinement goes through the exact
    banded ladder entries; only the smooth remainder is interpolated and
    applied as a Chebyshev surrogate.  Pushing q x**2 through the surrogate
    instead would attach its order-(q L**2 / 2) coefficients to every pruned
    recurrence path and swamp the reduction error of the interesting part.
    """

    iset: IndexSet
    potential: PotentialSpec
    degree: int

    def approx_at(self, t: float) -> ChebApprox:
        return interpolate(smooth_remainder(self.potential), self.degree,
                           time=t)

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
    banded matrix, smooth remainder through order-K quadrature assembly.
    Matrices for each Chebyshev degree tuple are assembled once and cached;
    at a given time the surrogate coefficients recombine them, so repeated
    calls cost one small dense update plus matvecs.
    """

    iset: IndexSet
    potential: PotentialSpec
    degree: int
    force: bool = False
    _terms: dict = field(default_factory=dict, repr=False)

    def term_matrix(self, tup: tuple[int, ...]) -> np.ndarray:
        mat = self._terms.get(tup)
        if mat is None:
            one = ChebApprox(
                dim=self.iset.dim, degree=max(max(tup), 0),
                halfwidth=self.potential.halfwidth, time=0.0,
                degrees=np.asarray([tup], dtype=np.int64),
                coeffs=np.asarray([1.0]))
            rule = gauss_hermite_rule(self.iset.bound)
            mat = assemble_quad_galerkin(self.iset, one, rule,
                                         force=self.force).matrix
            self._terms[tup] = mat
        return mat

    def matrix_at(self, t: float) -> np.ndarray:
        approx = interpolate(smooth_remainder(self.potential), self.degree,
                             time=t)
        base = self._terms.get("static")
        if base is None:
            levels = (self.iset.indices + 0.5).sum(axis=1).astype(np.float64)
            base = np.diag(levels)
            q = self.potential.harmonic_part
            if q != 0.0:
                base = base + q * assemble_square_sum(
                    self.iset, force=self.force).matrix
            self._terms["static"] = base
        out = base.copy()
        for tup, coeff in approx.terms:
            out += coeff * self.term_matrix(tup)
        return out

    def matvec_at(self, t: float) -> MatVec:
        # Krylov vectors are complex; one conversion per instant spares
        # every matvec a real-to-complex copy of the matrix
        mat = self.matrix_at(t).astype(np.complex128)
        return lambda v: mat @ v


# -- single-step Lanczos studies ------------------------------------------------


@dataclass(frozen=True)
class PerturbationResult:
    """One measurement of the fast-matvec effect on a Krylov exponential."""

    error: float
    bound: float | None
    step: float
    krylov_steps: int
    hermiticity_defect: float


def lanczos_perturbation_error(iset: IndexSet, potential: PotentialSpec,
                               degree: int, beta: int, h: float,
                               krylov_steps: int, *, time: float = 0.0,
                               with_bound: bool = False,
                               force: bool = False) -> PerturbationResult:
    """Distance between Krylov exponentials built on oracle vs fast matvecs.

    Measures || V exp(-i h T) e_1 - V~ exp(-i h T~) e_1 ||_2 starting from
    the normalized beta-decay vector, where the tilded factorization uses
    the insertion algorithm on the pruned set and the plain one uses the
    assembled matrix.  With ``with_bound`` the sensitivity estimate
    h ||F|| exp(h (||A|| + ||F||)) is evaluated too (dense norms, so only
    for small problems).
    """
    v = make_decay_vector(iset, beta).data.astype(np.complex128)
    oracle = OracleHamiltonian(iset, potential, degree, force=force)
    mat = oracle.matrix_at(time)
    fast = FastHamiltonian(iset, potential, degree).matvec_at(time)
    u_plain, fac_plain = lanczos_exp_apply(lambda w: mat @ w, v, h,
                                           krylov_steps)
    u_fast, fac_fast = lanczos_exp_apply(fast, v, h, krylov_steps)
    err = float(np.linalg.norm(u_plain - u_fast))
    bound = None
    if with_bound:
        cols = [mat @ fac_fast.basis[:, k] - fast(fac_fast.basis[:, k])
                for k in range(fac_fast.steps)]
        fnorm = float(np.linalg.norm(np.stack(cols, axis=1), 2))
        anorm = float(np.linalg.norm(mat, 2))
        bound = h * fnorm * float(np.exp(h * (anorm + fnorm)))
    return PerturbationResult(err, bound, h, krylov_steps,
                              fac_fast.hermiticity_defect)


def lanczos_truncation_error(iset: IndexSet, potential: PotentialSpec,
                             degree: int, beta: int, h: float,
                             krylov_steps: int, *, time: float = 0.0,
                             force: bool = False) -> float:
    """Krylov error || V exp(-i h T) e_1 - exp(-i h A) v ||_2, oracle matvecs.

    The exact exponential comes from a dense eigendecomposition, so this is
    the classical Lanczos approximation error with the perturbation switched
    off entirely.
    """
    v = make_decay_vector(iset, beta).data.astype(np.complex128)
    mat = OracleHamiltonian(iset, potential, degree,
                            force=force).matrix_at(time)
    u_kry, _ = lanczos_exp_apply(lambda w: mat @ w, v, h, krylov_steps)
    evals, evecs = np.linalg.eigh(mat)
    u_exact = evecs @ (np.exp(-1j * h * evals) * (evecs.conj().T @ v))
    return float(np.linalg.norm(u_kry - u_exact))


# -- full propagation study -----------------------------------------------------


@dataclass(frozen=True)
class PropagationRow:
    """Errors of one fast-matvec propagation run at a fixed step size."""

    nsteps: int
    step: float
    scheme_error: float
    perturbation_error: float


def build_reference(iset: IndexSet, potential: PotentialSpec, degree: int,
                    y0: np.ndarray, *, t0: float = 0.0, t1: float = 1.0,
                    nsteps: int = 10_000, krylov_steps: int = 20,
                    force: bool = False) -> np.ndarray:
    """High-accuracy endpoint state for the coefficient ODE.

    Fourth-order two-point Gauss stepping with tiny steps and a generous
    Krylov space, driven by assembled-matrix matvecs so none of the fast
    path's own error mechanisms contaminate the reference.
    """
    ham = OracleHamiltonian(iset, potential, degree, force=force)
    return propagate_magnus(MagnusScheme.from_name("gl2"), ham.matvec_at,
                            y0, t0, t1, nsteps, krylov_steps)


def propagate_and_compare(iset: IndexSet, potential: PotentialSpec,
                          degree: int, beta: int, scheme: MagnusScheme,
                          step_counts: Sequence[int], krylov_steps: int, *,
                          t0: float = 0.0, t1: float = 1.0,
                          reference: np.ndarray | None = None,
                          reference_steps: int = 10_000,
                          reference_krylov: int = 20,
                          force: bool = False) -> list[PropagationRow]:
    """March the ODE with fast matvecs and report endpoint errors per step.

    For each step count the run is repeated with assembled-matrix matvecs
    under the same scheme; the max-norm distance between the two endpoint
    states is the perturbation error, while the distance to the reference
    (built here if not supplied) is the total scheme error.
    """
    y0 = make_decay_vector(iset, beta).data.astype(np.complex128)
    if reference is None:
        reference = build_reference(iset, potential, degree, y0, t0=t0, t1=t1,
                                    nsteps=reference_steps,
                                    krylov_steps=reference_krylov, force=force)
    fast = FastHamiltonian(iset, potential, degree)
    oracle = OracleHamiltonian(iset, potential, degree, force=force)
    rows = []
    for nsteps in step_counts:
        y_fast = propagate_magnus(scheme, fast.matvec_at, y0, t0, t1,
                                  nsteps, krylov_steps)
        y_plain = propagate_magnus(scheme, oracle.matvec_at, y0, t0, t1,
                                   nsteps, krylov_steps)
        rows.append(PropagationRow(
            nsteps=nsteps,
            step=(t1 - t0) / nsteps,
            scheme_error=float(np.max(np.abs(y_fast - reference))),
            perturbation_error=float(np.max(np.abs(y_fast - y_plain))),
        ))
    return rows
