"""Dense quadrature-based reference operators.

Everything here exists to verify the matrix-free path at desk scale, not to
be fast.  Galerkin matrices of the surrogate potential are assembled entry
by entry from Gauss-Hermite sums that factorize over the axes:

    W[j, k] = sum_r alpha_r * prod_l  sum_m omega_m phi_{j_l}(xi_m)
                                       T_{r_l}(xi_m / L) phi_{k_l}(xi_m).

With a rule of order M = K (the basis bound) this reproduces exactly what
the fast insertion algorithm computes on full cubes; with an over-resolved
rule of order K + R the one-dimensional integrands are polynomials of degree
at most 2K + R times the Gaussian, so the quadrature is exact and the result
is the true Galerkin matrix of the surrogate.

Assembly cost is O(size**2 * nterms * M * dim) and is guarded by a size cap,
20000 rows by default, set only through the ``HPROP_DENSE_CAP`` environment
variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .hermite_basis import eval_hermite_functions, gauss_hermite_rule, \
    QuadratureRule
from .index_set import IndexSet, build_full
from .potential_approx import ChebApprox

DEFAULT_DENSE_CAP = 20_000
ENV_DENSE_CAP = "HPROP_DENSE_CAP"


def dense_cap() -> int:
    """Current dense-assembly row cap (env override wins)."""
    raw = os.environ.get(ENV_DENSE_CAP)
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_DENSE_CAP} must be an integer, got {raw!r}") \
            from None


def _check_cap(size: int) -> None:
    cap = dense_cap()
    if size > cap:
        raise ValueError(
            f"dense assembly of a {size} x {size} matrix exceeds the cap of "
            f"{cap} rows; raise {ENV_DENSE_CAP}")


@dataclass(frozen=True)
class DenseOperator:
    """A dense matrix over an index set's canonical ordering: entry (i, j)
    couples the i-th and j-th members of ``iset``."""

    iset: IndexSet
    matrix: np.ndarray


def assemble_coordinate(iset: IndexSet, axis: int) -> DenseOperator:
    """Dense coordinate multiplication matrix X_axis on the set."""
    if not 1 <= axis <= iset.dim:
        raise ValueError(f"axis must satisfy 1 <= axis <= {iset.dim}, got {axis}")
    _check_cap(iset.size)
    n = iset.size
    down, up = iset.neighbor_ordinals(axis)
    jl = iset.indices[:, axis - 1].astype(np.float64)
    mat = np.zeros((n, n), dtype=np.float64)
    rows = np.arange(n)
    has_down = down >= 0
    mat[rows[has_down], down[has_down]] = np.sqrt(jl[has_down] / 2.0)
    has_up = up >= 0
    mat[rows[has_up], up[has_up]] = np.sqrt((jl[has_up] + 1.0) / 2.0)
    return DenseOperator(iset, mat)


def assemble_oscillator_diagonal(iset: IndexSet) -> DenseOperator:
    """diag(sum_l (j_l + 1/2)), the kinetic-plus-confinement part."""
    levels = (iset.indices + 0.5).sum(axis=1).astype(np.float64)
    return DenseOperator(iset, np.diag(levels))


def assemble_square_sum(iset: IndexSet) -> DenseOperator:
    """Exact Galerkin matrix of sum_l x_l**2, restricted to the set.

    Closed-form banded entries: j_l + 1/2 on the diagonal per axis and
    sqrt((j_l + 1)(j_l + 2)) / 2 coupling j to j + 2 e_l.  Restriction just
    drops couplings with a missing partner; the diagonal is untouched.
    """
    _check_cap(iset.size)
    n = iset.size
    mat = np.diag((iset.indices + 0.5).sum(axis=1).astype(np.float64))
    rows = np.arange(n)
    for axis in range(1, iset.dim + 1):
        down, up = iset.neighbor_ordinals(axis)
        down2 = np.append(down, -1)[down]
        up2 = np.append(up, -1)[up]
        jl = iset.indices[:, axis - 1].astype(np.float64)
        has_up = up2 >= 0
        mat[rows[has_up], up2[has_up]] += \
            np.sqrt((jl[has_up] + 1.0) * (jl[has_up] + 2.0)) / 2.0
        has_down = (down2 >= 0) & (iset.indices[:, axis - 1] >= 2)
        mat[rows[has_down], down2[has_down]] += \
            np.sqrt(jl[has_down] * (jl[has_down] - 1.0)) / 2.0
    return DenseOperator(iset, mat)


def _quadrature_assembly(iset: IndexSet, approx: ChebApprox,
                         rule: QuadratureRule) -> np.ndarray:
    """Row-by-row evaluation of the factorized Gauss-Hermite sums."""
    idx = iset.indices
    n, N = iset.size, iset.dim
    phi = eval_hermite_functions(rule.nodes, iset.bound)      # (K+1, M+1)
    tch = chebvander(rule.nodes / approx.halfwidth, max(approx.degree, 0)).T
    degrees = approx.degrees
    coeffs = approx.coeffs
    # per-degree node weights omega * T_r(xi / L)
    wt = {int(d): rule.modified_weights * tch[int(d)]
          for d in np.unique(degrees)} if coeffs.size else {}
    phi_set = [np.ascontiguousarray(phi[idx[:, l], :]) for l in range(N)]
    out = np.zeros((n, n), dtype=np.float64)
    if coeffs.size == 0:
        return out
    deg_lists = degrees.tolist()
    for i in range(n):
        row_idx = idx[i]
        svecs: dict[tuple[int, int], np.ndarray] = {}
        acc = np.zeros(n, dtype=np.float64)
        for t in range(coeffs.shape[0]):
            r = deg_lists[t]
            prod = None
            for l in range(N):
                key = (l, r[l])
                s = svecs.get(key)
                if s is None:
                    s = phi_set[l] @ (wt[r[l]] * phi[row_idx[l]])
                    svecs[key] = s
                prod = s if prod is None else prod * s
            acc += coeffs[t] * prod
        out[i] = acc
    return out


def assemble_with_rule(iset: IndexSet, approx: ChebApprox,
                       rule: QuadratureRule) -> DenseOperator:
    """Assembly under an arbitrary rule order.

    No exactness or matching guarantees; ``assemble_quad_galerkin`` and
    ``assemble_exact_galerkin`` are the two meaningful special cases.
    Called directly, it lets mismatched orders be demonstrated to fail.
    """
    if approx.dim != iset.dim:
        raise ValueError(f"surrogate dimension {approx.dim} does not match "
                         f"index set dimension {iset.dim}")
    _check_cap(iset.size)
    return DenseOperator(iset, _quadrature_assembly(iset, approx, rule))


def assemble_quad_galerkin(iset: IndexSet, approx: ChebApprox,
                           rule: QuadratureRule) -> DenseOperator:
    """Galerkin matrix of the surrogate under the order-K quadrature.

    The rule order must equal the basis bound; that choice makes the matrix
    identical (to rounding) with what the insertion algorithm computes on
    full cubes, which is the whole point of this oracle.
    """
    if rule.order != iset.bound:
        raise ValueError(
            f"rule order mismatch: quadrature Galerkin assembly requires "
            f"order {iset.bound}, got {rule.order}")
    return assemble_with_rule(iset, approx, rule)


def assemble_exact_galerkin(iset: IndexSet,
                            approx: ChebApprox) -> DenseOperator:
    """True Galerkin matrix of the surrogate, via an over-resolved rule.

    The rule order K + R integrates every basis-times-surrogate product
    exactly (degree <= 2K + R <= 2 (K + R) + 1).
    """
    rule = gauss_hermite_rule(iset.bound + approx.degree)
    return assemble_with_rule(iset, approx, rule)


def verify_diagonalization(max_order: int, dim: int) -> tuple[float, float]:
    """Residuals of the node-basis diagonalization of the coordinate matrices.

    Builds U[j, k] = sqrt(omega_j) phi_k(xi_j) on the full cube, tensorized,
    and returns (max_l ||U^T Xi_l U - X_l||_max, ||U^T U - I||_max).  The
    first vanishing says coordinate matrices diagonalize in the quadrature
    node basis; the second is discrete orthonormality.
    """
    if (max_order + 1) ** dim > 10_000:
        raise ValueError("diagonalization check limited to 10000 basis "
                         "functions; reduce max_order or dim")
    full = build_full(dim, max_order)
    rule = gauss_hermite_rule(max_order)
    phi = eval_hermite_functions(rule.nodes, max_order)      # (K+1, M+1)
    u1 = np.sqrt(rule.modified_weights)[:, None] * phi.T     # (nodes, orders)
    u = u1
    for _ in range(dim - 1):
        u = np.kron(u, u1)
    orth = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
    diag_res = 0.0
    eye = np.eye(max_order + 1)
    for axis in range(1, dim + 1):
        xi = np.diag(rule.nodes)
        blocks = [eye] * dim
        blocks[axis - 1] = xi
        big = blocks[0]
        for b in blocks[1:]:
            big = np.kron(big, b)
        x_dense = assemble_coordinate(full, axis).matrix
        diag_res = max(diag_res, float(np.max(np.abs(u.T @ big @ u - x_dense))))
    return diag_res, orth
