"""Krylov approximation of the propagator and Magnus time stepping.

The propagation problem is i y' = A(t) y with A(t) Hermitian (real symmetric
in our Galerkin bases).  A single step freezes or averages A(t) into one
Hermitian operator B and applies exp(-i h B) to the current state through a
Lanczos factorization

    B V_m = V_m T_m + beta_m v_{m+1} e_m^T,
    exp(-i h B) v  ~=  ||v|| V_m exp(-i h T_m) e_1.

T_m is real symmetric tridiagonal and small (m is the Krylov dimension); its
exponential column comes from a dense symmetric eigendecomposition.

Two step rules are provided: the exponential midpoint rule (B = A(t + h/2),
order two) and a two-point Gauss commutator scheme of order four that needs
four operator applications per Krylov matvec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

MatVec = Callable[[np.ndarray], np.ndarray]

# relative to the operator-norm estimate max(|alpha_j|, beta_j) so far
_BREAKDOWN_TOL = 1e-14


@dataclass
class LanczosFactorization:
    """Result of a Lanczos run: basis, recurrence coefficients, diagnostics.

    ``basis`` has shape (n, m_eff), a transposed view of the Krylov vectors
    stored as contiguous rows; ``alpha`` the m_eff diagonal entries,
    ``beta`` the m_eff - 1 couplings.  ``breakdown_at`` is the step index
    where an invariant subspace was hit, or None.  ``hermiticity_defect``
    records max_k |Im <v_k, A v_k>|; it is reported, never enforced, because
    pruned index sets make some of our operators slightly non-normal.
    """

    basis: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    breakdown_at: int | None
    hermiticity_defect: float

    def orthogonality_defect(self) -> float:
        g = self.basis.conj().T @ self.basis
        return float(np.max(np.abs(g - np.eye(g.shape[0]))))


def lanczos(matvec: MatVec, v0: np.ndarray, steps: int, *,
            reorthogonalize: bool = False) -> LanczosFactorization:
    """Run ``steps`` Lanczos iterations from ``v0`` (need not be normalized).

    The run stops at an invariant subspace: a coupling beta_k at or below
    _BREAKDOWN_TOL times max(|alpha_j|, beta_j) so far, so rounding-level
    couplings count as zero whatever the operator's scale.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    v0 = np.asarray(v0)
    nrm = np.linalg.norm(v0)
    if nrm == 0.0:
        raise ValueError("starting vector must be nonzero")
    dtype = np.result_type(v0.dtype, np.complex128)
    n = v0.shape[0]
    rows = np.empty((steps, n), dtype=dtype)    # v_k = rows[k], contiguous
    alpha = np.empty(steps, dtype=np.float64)
    beta = np.empty(max(steps - 1, 0), dtype=np.float64)
    rows[0] = v0 / nrm
    prev = np.zeros(n, dtype=dtype)
    bprev = 0.0
    defect = 0.0
    anorm = 0.0
    breakdown_at = None
    m_eff = steps
    for k in range(steps):
        vk = rows[k]
        w = np.asarray(matvec(vk), dtype=dtype)
        ak = vk.conj() @ w
        defect = max(defect, abs(float(ak.imag)))
        alpha[k] = ak.real
        anorm = max(anorm, abs(alpha[k]), bprev)
        if k == steps - 1:
            break
        w = w - alpha[k] * vk - bprev * prev
        if reorthogonalize:
            w = w - rows[:k + 1].T @ (rows[:k + 1].conj() @ w)
        bk = float(np.linalg.norm(w))
        if bk <= _BREAKDOWN_TOL * anorm:
            breakdown_at = k + 1
            m_eff = k + 1
            break
        beta[k] = bk
        rows[k + 1] = w / bk
        prev = vk
        bprev = bk
    return LanczosFactorization(
        basis=rows[:m_eff].T,
        alpha=alpha[:m_eff].copy(),
        beta=beta[:max(m_eff - 1, 0)].copy(),
        breakdown_at=breakdown_at,
        hermiticity_defect=defect,
    )


def expm_tridiag_column(alpha: np.ndarray, beta: np.ndarray,
                        tau: float) -> np.ndarray:
    """First column of exp(-i tau T) for the tridiagonal T = (alpha, beta)."""
    t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    d, z = np.linalg.eigh(t)
    return z @ (np.exp(-1j * tau * d) * z[0, :])


def krylov_exponential(fac: LanczosFactorization, norm: float,
                       tau: float) -> np.ndarray:
    """||v|| V_m exp(-i tau T_m) e_1 from a factorization of A started at v.

    ``norm`` is ||v||.  The Krylov space does not depend on tau, so one
    factorization serves every tau.
    """
    col = expm_tridiag_column(fac.alpha, fac.beta, tau)
    return norm * (fac.basis @ col)


def lanczos_exp_apply(matvec: MatVec, v: np.ndarray, tau: float, steps: int, *,
                      reorthogonalize: bool = False
                      ) -> tuple[np.ndarray, LanczosFactorization]:
    """Approximate exp(-i tau A) v with a ``steps``-dimensional Krylov space."""
    fac = lanczos(matvec, v, steps, reorthogonalize=reorthogonalize)
    return krylov_exponential(fac, float(np.linalg.norm(v)), tau), fac


_SQRT3 = float(np.sqrt(3.0))


@dataclass(frozen=True)
class MagnusScheme:
    """A one-step exponential integrator defined by its operator average."""

    name: str

    @staticmethod
    def from_name(name: str) -> "MagnusScheme":
        try:
            return _SCHEMES[name]
        except KeyError:
            raise ValueError(
                f"unknown scheme {name!r}; choose from {sorted(_SCHEMES)}"
            ) from None


_SCHEMES = {
    "midpoint": MagnusScheme("midpoint"),
    "gl2": MagnusScheme("gl2"),
}


def _step_matvec(scheme: MagnusScheme, ham_at: Callable[[float], MatVec],
                 t: float, h: float) -> MatVec:
    """The frozen Hermitian operator whose exponential advances one step."""
    if scheme.name == "midpoint":
        return ham_at(t + 0.5 * h)
    if scheme.name == "gl2":
        c = _SQRT3 / 6.0
        a1 = ham_at(t + (0.5 - c) * h)
        a2 = ham_at(t + (0.5 + c) * h)
        gamma = _SQRT3 / 12.0 * h

        def matvec(v: np.ndarray) -> np.ndarray:
            y1 = a1(v)
            y2 = a2(v)
            # i [A2, A1] / (2 sqrt(3)) * h keeps the average Hermitian
            comm = a2(y1) - a1(y2)
            return 0.5 * (y1 + y2) - 1j * gamma * comm

        return matvec
    raise ValueError(f"unknown scheme {scheme.name!r}")


def magnus_step(scheme: MagnusScheme, ham_at: Callable[[float], MatVec],
                y: np.ndarray, t: float, h: float, steps: int, *,
                reorthogonalize: bool = False
                ) -> tuple[np.ndarray, LanczosFactorization]:
    """Advance y from t to t + h with a Krylov-approximated exponential."""
    matvec = _step_matvec(scheme, ham_at, t, h)
    return lanczos_exp_apply(matvec, y, h, steps,
                             reorthogonalize=reorthogonalize)


def propagate_magnus(scheme: MagnusScheme, ham_at: Callable[[float], MatVec],
                     y0: np.ndarray, t0: float, t1: float, nsteps: int,
                     krylov_steps: int, *,
                     callback: Callable[[int, float, np.ndarray], None]
                     | None = None) -> np.ndarray:
    """March from t0 to t1 in nsteps equal steps; returns the final state."""
    if nsteps < 1:
        raise ValueError("nsteps must be at least 1")
    h = (t1 - t0) / nsteps
    y = np.asarray(y0, dtype=np.complex128).copy()
    for k in range(nsteps):
        t = t0 + k * h
        y, _ = magnus_step(scheme, ham_at, y, t, h, krylov_steps)
        if callback is not None:
            callback(k + 1, t + h, y)
    return y
