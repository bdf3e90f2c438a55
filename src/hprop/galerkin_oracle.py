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

The coordinate and x**2 matrices write their closed-form entries at the
partners ``IndexSet.locate`` finds, never through the fast applier's neighbor
tables, and so check them; on any set of rows they restrict exactly.

Assembly cost is O(size**2 * nterms * M * dim) and is guarded by the row cap
``DENSE_CAP``, checked before any matrix or rule is built; callers that hold
several matrices at once check them against one cap-sized matrix's entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .hermite_basis import eval_hermite_functions, gauss_hermite_rule, \
    QuadratureRule
from .index_set import IndexSet, build_full
from .potential_approx import ChebApprox

# Largest set the dense oracle assembles on; read at call time.
DENSE_CAP = 20_000


def check_dense(size: int, matrices: int = 1) -> None:
    """Refuse size x size matrices beyond DENSE_CAP rows, or ``matrices`` of
    them that together hold more entries than one cap-sized matrix."""
    if size > DENSE_CAP or matrices * size * size > DENSE_CAP ** 2:
        raise ValueError(
            f"dense assembly of {matrices} x {size}**2 entries exceeds the "
            f"cap of {DENSE_CAP} rows or {DENSE_CAP}**2 entries")


@dataclass(frozen=True)
class DenseOperator:
    """A dense matrix over an index set's canonical ordering: entry (i, j)
    couples the set's i-th and j-th members."""

    matrix: np.ndarray


def _couple(mat: np.ndarray, iset: IndexSet, axis: int, step: int,
            entries: np.ndarray) -> None:
    """Write entries[i] at (i, p) and (p, i) for every member i whose partner
    p = i + step * e_axis is a member; a row without one couples to nothing."""
    shift = step * np.eye(iset.dim, dtype=np.int64)[axis - 1]
    partner = iset.locate(iset.indices + shift)
    rows = np.flatnonzero(partner >= 0)
    mat[rows, partner[rows]] = entries[rows]
    mat[partner[rows], rows] = entries[rows]


def assemble_coordinate(iset: IndexSet, axis: int) -> DenseOperator:
    """Dense coordinate matrix X_axis: sqrt((j_l + 1) / 2) at j, j + e_axis."""
    if not 1 <= axis <= iset.dim:
        raise ValueError(f"axis must satisfy 1 <= axis <= {iset.dim}, got {axis}")
    check_dense(iset.size)
    jl = iset.indices[:, axis - 1].astype(np.float64)
    mat = np.zeros((iset.size, iset.size), dtype=np.float64)
    _couple(mat, iset, axis, 1, np.sqrt((jl + 1.0) / 2.0))
    return DenseOperator(mat)


def assemble_oscillator_diagonal(iset: IndexSet) -> DenseOperator:
    """diag(sum_l (j_l + 1/2)), the kinetic-plus-confinement part."""
    check_dense(iset.size)
    levels = (iset.indices + 0.5).sum(axis=1).astype(np.float64)
    return DenseOperator(np.diag(levels))


def assemble_square_sum(iset: IndexSet) -> DenseOperator:
    """Exact Galerkin matrix of sum_l x_l**2, restricted to the set.

    Closed-form banded entries: j_l + 1/2 on the diagonal per axis and
    sqrt((j_l + 1)(j_l + 2)) / 2 coupling j to j + 2 e_l.  Restriction just
    drops couplings with a missing partner; the diagonal is untouched.
    """
    mat = assemble_oscillator_diagonal(iset).matrix
    for axis in range(1, iset.dim + 1):
        jl = iset.indices[:, axis - 1].astype(np.float64)
        _couple(mat, iset, axis, 2, np.sqrt((jl + 1.0) * (jl + 2.0)) / 2.0)
    return DenseOperator(mat)


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
    wt = {d: rule.modified_weights * tch[d]
          for d in set(degrees.ravel().tolist())}
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
    check_dense(iset.size)
    return DenseOperator(_quadrature_assembly(iset, approx, rule))


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
    check_dense(iset.size)
    rule = gauss_hermite_rule(iset.bound + approx.degree)
    return assemble_with_rule(iset, approx, rule)


def verify_diagonalization(max_order: int, dim: int) -> tuple[float, float]:
    """Residuals of the node-basis diagonalization of the coordinate matrices.

    Builds U[j, k] = sqrt(omega_j) phi_k(xi_j) on the full cube, tensorized,
    and returns (max_l ||U^T Xi_l U - X_l||_max, ||U^T U - I||_max).  The
    first vanishing says coordinate matrices diagonalize in the quadrature
    node basis; the second is discrete orthonormality.
    """
    # U, U^T U, U^T Xi U and X are held at once
    check_dense((max_order + 1) ** dim, 4)
    full = build_full(dim, max_order)
    rule = gauss_hermite_rule(max_order)
    phi = eval_hermite_functions(rule.nodes, max_order)      # (K+1, M+1)
    u1 = np.sqrt(rule.modified_weights)[:, None] * phi.T     # (nodes, orders)
    u = u1
    for _ in range(dim - 1):
        u = np.kron(u, u1)
    orth = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
    # the rows of U run over the node grid in the cube's order, so the
    # diagonal Xi_l scales row m by the node coordinate of its l-th digit
    diag_res = 0.0
    for axis in range(1, dim + 1):
        xi = rule.nodes[full.indices[:, axis - 1]]
        x_dense = assemble_coordinate(full, axis).matrix
        diag_res = max(diag_res,
                       float(np.max(np.abs((u.T * xi) @ u - x_dense))))
    return diag_res, orth
