"""Univariate Hermite functions and Gauss-Hermite quadrature.

The Hermite functions

    phi_0(x) = pi**(-1/4) * exp(-x**2 / 2),
    phi_{k+1}(x) = sqrt(2/(k+1)) * x * phi_k(x) - sqrt(k/(k+1)) * phi_{k-1}(x),

are the L2-orthonormal eigenfunctions of the harmonic oscillator,
(1/2)(-d^2/dx^2 + x^2) phi_k = (k + 1/2) phi_k.  All evaluation happens on
the functions themselves: the bare Hermite polynomials overflow double
precision long before order 100 while the functions stay uniformly bounded
by pi**(-1/4).

Quadrature rules of order M carry the M+1 roots of phi_{M+1} as nodes.  The
raw weights integrate against exp(-x**2); the modified weights
omega_m = w_m * exp(xi_m**2) integrate plain products of Hermite functions,
(f, g) ~ sum_m omega_m f(xi_m) g(xi_m), exactly whenever f*g*exp(x**2) is a
polynomial of degree <= 2M + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def eval_hermite_functions(x, max_order: int) -> np.ndarray:
    """Values phi_k(x) for k = 0..max_order.

    Returns shape (max_order+1,) for scalar ``x`` and (max_order+1, len(x))
    for a 1-d array of points.
    """
    if max_order < 0:
        raise ValueError(f"max_order must be nonnegative, got {max_order}")
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    y = np.atleast_1d(x)
    out = np.empty((max_order + 1, y.shape[0]), dtype=np.float64)
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * y * y)
    if max_order >= 1:
        out[1] = np.sqrt(2.0) * y * out[0]
    for k in range(1, max_order):
        out[k + 1] = (np.sqrt(2.0 / (k + 1)) * y * out[k]
                      - np.sqrt(k / (k + 1.0)) * out[k - 1])
    return out[:, 0] if scalar else out


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule of a given order with M+1 nodes.

    nodes            strictly increasing, symmetric about 0
    weights          integrate f(x) * exp(-x**2)
    modified_weights integrate products of Hermite functions directly
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    modified_weights: np.ndarray


@lru_cache(maxsize=128)
def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Gauss-Hermite quadrature of the given order (order+1 nodes).

    Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix of
    the Hermite recurrence, off-diagonal sqrt(k/2) for k = 1..order (Golub &
    Welsch, Math. Comp. 23, 1969), polished by one vectorized Newton step on
    phi_{order+1} and symmetrized about 0.  Weights come from the derivative
    identity phi'_{n}(xi) = sqrt(2n) phi_{n-1}(xi) at a root, giving
    omega = 2 / phi'_n(xi)**2 directly, with no overflow-prone factorials.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    n = order + 1
    off = np.sqrt(np.arange(1, n) / 2.0)
    nodes = np.linalg.eigvalsh(np.diag(off, -1))
    table = eval_hermite_functions(nodes, n)
    if table[0, -1] == 0.0:
        # from order 765 on phi_0 underflows at the outer nodes, and with
        # it every phi_k there
        raise ValueError(f"Gauss-Hermite rule of order {order} exceeds the "
                         f"double-precision range of the Hermite functions")
    nodes -= table[n] / (math.sqrt(2.0 * n) * table[n - 1] - nodes * table[n])
    nodes = 0.5 * (nodes - nodes[::-1])
    # derivative of phi_n at every node in one vectorized pass
    table = eval_hermite_functions(nodes, n)
    dphi = math.sqrt(2.0 * n) * table[n - 1] - nodes * table[n]
    omega = 2.0 / (dphi * dphi)
    weights = omega * np.exp(-nodes * nodes)
    for arr in (nodes, weights, omega):
        arr.setflags(write=False)
    return QuadratureRule(order, nodes, weights, omega)


def check_support_condition(halfwidth: float, max_order: int) -> str | None:
    """Check that the box [-L, L] covers the span of the basis.

    The highest retained basis function of order K lives essentially inside
    |x| <= sqrt(2(K+1)) + 1; the box must contain that interval for the
    polynomial surrogate of the potential to see the whole wave packet.
    Returns the violation message, or None when L is large enough.
    """
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")
    if max_order < 0:
        raise ValueError(f"max_order must be nonnegative, got {max_order}")
    required = math.sqrt(2.0 * (max_order + 1)) + 1.0
    if halfwidth >= required:
        return None
    return (f"support condition violated: L = {halfwidth:.4g} < "
            f"sqrt(2(K+1)) + 1 = {required:.4g} "
            f"(deficit {required - halfwidth:.4g}); the truncated basis is "
            f"not resolved on [-L, L] and interpolation degrades")
