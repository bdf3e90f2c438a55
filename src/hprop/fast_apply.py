"""Matrix-free application of polynomial potentials in coefficient space.

Multiplication by the coordinate x_l acts on Hermite coefficients as the
sparse two-band operation

    (X_l v)_j = sqrt(j_l / 2) * v_{j - e_l} + sqrt((j_l + 1) / 2) * v_{j + e_l},

where a missing neighbor, whether outside the cube or pruned away by a
reduced index set, contributes zero.  Chebyshev polynomials of X_l / L then
follow from the three-term recurrence on whole coefficient vectors, and a
tensor surrogate sum_r alpha_r prod_l T_{r_l}(X_l / L) is applied at cost
O(sum_r |r| * size) instead of a dense matrix multiply.  All terms share
their sweeps: the degree tuples form a trie in application order, each node
off the last-applied axis runs one recurrence sweep up to the largest degree
its terms need on its axis, and every intermediate vector is computed once.
Every term ends with a factor T_k on the last-applied axis, so by linearity
the nodes there only collect the vector each T_k acts on, and one Clenshaw
recurrence (Clenshaw 1955) sums the series.  In sweeps an apply costs the
sum of the largest degrees of the nodes off the last axis, plus the last
axis's largest degree; separable potentials cost one per axis, O(N R size).

Within every term the axis factors are applied from the last axis inward to
the first, matching the product as written.  On full cubes the factors
commute and the order is irrelevant; on reduced sets it is part of the
operation's definition, so the order is fixed.
"""

from __future__ import annotations

import warnings
import weakref

import numpy as np

from .index_set import CoeffVector, IndexSet
from .potential_approx import ChebApprox


class PolynomialApplier:
    """Workspace-backed applier bound to one index set.

    Gathers read the set's own neighbor tables: vectors carry a zero in an
    extra last slot, which an absent neighbor's -1 picks.  The x**2 tables
    are built on first use; the per-call scratch vectors are allocated inside
    each apply, so one applier can serve concurrent callers.
    """

    def __init__(self, iset: IndexSet):
        n, N = iset.size, iset.dim
        self._iset = weakref.ref(iset)
        self.size, self.dim, self.indices = n, N, iset.indices
        self._down = []
        self._up = []
        self._cdown = []
        self._cup = []
        for axis in range(1, N + 1):
            down, up = iset.neighbor_ordinals(axis)
            self._down.append(down)
            self._up.append(up)
            jl = iset.indices[:, axis - 1].astype(np.float64)
            self._cdown.append(np.sqrt(jl / 2.0))
            self._cup.append(np.sqrt((jl + 1.0) / 2.0))
        self.osc_levels = (iset.indices + 0.5).sum(axis=1).astype(np.float64)
        self._square = None

    @property
    def iset(self) -> IndexSet | None:
        """The set, held weakly: it keys the applier cache (None once gone)."""
        return self._iset()

    # -- full surrogate ---------------------------------------------------------

    def apply_polynomial(self, approx: ChebApprox, v: np.ndarray,
                         axis_order=None) -> np.ndarray:
        """Multiply v by the restricted Galerkin matrix of the surrogate.

        Factors apply in ``axis_order`` (first entry applied first; by
        default axis N down to axis 1).  Each term ends with T_k(scale X) on
        the last axis applied, so by linearity the surrogate is sum_k
        T_k(scale X) (w0[k] u + z[k]): terms with no degree before that axis
        only weight u, the walk collects the rest into z, and one Clenshaw
        recurrence sums the series at the cost of one sweep.
        """
        n, N = self.size, self.dim
        if axis_order is None:
            order = list(range(N, 0, -1))
        else:
            order = [int(a) for a in axis_order]
            if sorted(order) != list(range(1, N + 1)):
                raise ValueError(f"axis_order must permute 1..{N}")
        dtype = np.result_type(v.dtype, np.float64)
        acc = np.zeros(n, dtype=dtype)
        if not approx.nterms:
            return acc
        degs = approx.degrees[:, [a - 1 for a in order]]
        last, walked = degs[:, -1], degs[:, :-1].any(axis=1)
        top = int(last.max())
        w0 = np.bincount(last[~walked], approx.coeffs[~walked],
                         minlength=top + 1).tolist()
        # the root's four scratch rows, then z only if a walked term has a
        # degree on the last axis: separable surrogates allocate no z
        zrows = (top + 1) * bool(last[walked].any())
        work = np.zeros((4 + zrows, n + 1), dtype=dtype)
        bufs, z = work[:4], work[4:]
        u = np.zeros(n + 1, dtype=dtype)
        u[:n] = v
        scale = 1.0 / approx.halfwidth
        if walked.any():
            self._walk(order, degs[walked], approx.coeffs[walked], scale, u,
                       acc, z, bufs)
        # b_k = c_k + 2 scale X b_{k+1} - b_{k+2} (b_{top+1} = b_{top+2} = 0)
        # in row k % 3; the sum c_0 + scale X b_1 - b_2 lands in row 0
        for k in range(top, -1, -1):
            b = bufs[k % 3, :n]
            if k < top:
                self._times_x(order[-1], bufs[(k + 1) % 3], b, bufs[3, :n])
                b *= 2.0 * scale if k else scale
            else:
                b[:] = 0.0
            if k < top - 1:
                b -= bufs[(k + 2) % 3, :n]
            if w0[k] != 0.0:
                b += w0[k] * u[:n]
            if zrows:
                b += z[k, :n]
        acc += bufs[0, :n]
        return acc

    def _times_x(self, axis, src, out, tmp) -> None:
        """out = X_axis src for a padded src; tmp is scratch of length n."""
        a = axis - 1    # index, since np.take copies read-only tables
        np.multiply(src[self._up[a]], self._cup[a], out=tmp)
        np.multiply(src[self._down[a]], self._cdown[a], out=out)
        out += tmp

    def _walk(self, order, degs, coeffs, scale, u, acc, z, bufs=None) -> None:
        """Add sum_t coeffs[t] * prod_i T_{degs[t, i]}(scale X_{order[i]}) u.

        Factors apply in ``order``, whose first axis is this node's.  A node
        off the last axis runs one sweep up to its terms' largest degree,
        adds finished terms to ``acc`` and recurses per degree, so terms
        sharing a prefix share its sweeps; on the last axis it only adds
        coeffs * u into z[degree].  ``u`` is padded with a zero in slot n;
        ``bufs`` holds four padded scratch rows free for this node, or None.
        """
        n = self.size
        deg = degs[:, 0]
        if len(order) == 1:
            for k, w in enumerate(np.bincount(deg, coeffs).tolist()):
                if w != 0.0:
                    z[k] += w * u
            return
        if bufs is None:
            bufs = np.zeros((4, n + 1), dtype=acc.dtype)
        leaf = ~degs[:, 1:].any(axis=1)
        top = int(deg.max())
        weights = np.bincount(deg[leaf], coeffs[leaf],
                              minlength=top + 1).tolist()
        kids = set(deg[~leaf].tolist())
        if weights[0] != 0.0:
            acc += weights[0] * u[:n]
        prev, cur = None, u
        for k in range(1, top + 1):
            # T_k = 2 scale X T_{k-1} - T_{k-2} (T_1 = scale X u) into the
            # scratch row that holds T_{k-3}; slot n stays zero
            nxt = bufs[(k - 1) % 3]
            self._times_x(order[0], cur, nxt[:n], bufs[3, :n])
            nxt[:n] *= 2.0 * scale if k > 1 else scale
            if k > 1:
                nxt[:n] -= prev[:n]
            prev, cur = cur, nxt
            if weights[k] != 0.0:
                acc += weights[k] * cur[:n]
            if k in kids:
                group = ~leaf & (deg == k)
                self._walk(order[1:], degs[group, 1:], coeffs[group], scale,
                           cur, acc, z)
        # the degree-0 group sees u itself, and this node's scratch is free
        if 0 in kids:
            group = ~leaf & (deg == 0)
            self._walk(order[1:], degs[group, 1:], coeffs[group], scale, u,
                       acc, z, bufs)

    def apply_hamiltonian(self, approx: ChebApprox, v: np.ndarray) -> np.ndarray:
        out = self.apply_polynomial(approx, v)
        out += self.osc_levels * v
        return out

    # -- exact quadratic confinement --------------------------------------------

    def _square_tables(self):
        """Second-neighbor ordinals and x**2 couplings, built on first use.

        The Galerkin matrix of x_l**2 is banded with closed-form entries
        (j_l + 1/2 on the diagonal, sqrt(j_l (j_l - 1)) / 2 two below,
        sqrt((j_l + 1)(j_l + 2)) / 2 two above); restricting it to the set
        just drops couplings whose partner is missing.  Downward closure
        guarantees j + 2 e_l in the set implies j + e_l in the set, so the
        two-step tables compose from the one-step ones.
        """
        tables = self._square
        if tables is None:
            down2, up2, cdown2, cup2 = [], [], [], []
            for a in range(self.dim):
                d1, u1 = self._down[a], self._up[a]
                down2.append(np.append(d1, -1)[d1])
                up2.append(np.append(u1, -1)[u1])
                jl = self.indices[:, a].astype(np.float64)
                cdown2.append(np.sqrt(jl * (jl - 1.0)) / 2.0)
                cup2.append(np.sqrt((jl + 1.0) * (jl + 2.0)) / 2.0)
            tables = (down2, up2, cdown2, cup2)
            self._square = tables
        return tables

    def apply_square_sum(self, v: np.ndarray) -> np.ndarray:
        """(sum_l x_l**2) v through the exact restricted Galerkin entries.

        This is the restriction of the exact matrix, not the square of the
        restricted ladder: the diagonal keeps its full value j_l + 1/2 even
        where first neighbors are pruned away, so quadratic confinement
        shifts carry no reduction error at all.
        """
        n = self.size
        down2, up2, cdown2, cup2 = self._square_tables()
        pad = np.zeros(n + 1, dtype=np.result_type(v.dtype, np.float64))
        pad[:n] = v
        out = self.osc_levels * v    # sum_l (j_l + 1/2) is the full diagonal
        for a in range(self.dim):
            out += cdown2[a] * pad[down2[a]]
            out += cup2[a] * pad[up2[a]]
        return out


_APPLIERS = weakref.WeakKeyDictionary()


def get_applier(iset: IndexSet) -> PolynomialApplier:
    """Per-set applier, built once and dropped when its set is freed."""
    appl = _APPLIERS.get(iset)
    if appl is None:
        appl = _APPLIERS[iset] = PolynomialApplier(iset)
    return appl


def _check_vector(iset: IndexSet, v: CoeffVector) -> None:
    if v.iset is not iset and not iset.same_as(v.iset):
        raise ValueError("coefficient vector belongs to a different index set")


def _check_approx(iset: IndexSet, approx: ChebApprox) -> None:
    if approx.dim != iset.dim:
        raise ValueError(f"surrogate dimension {approx.dim} does not match "
                         f"index set dimension {iset.dim}")
    if approx.degree > iset.bound / 2:
        warnings.warn(
            f"surrogate degree {approx.degree} exceeds half the basis bound "
            f"{iset.bound}; quadrature exactness margins are thin",
            UserWarning, stacklevel=3)


def fast_algorithm(iset: IndexSet, approx: ChebApprox, v: CoeffVector,
                   *, axis_order=None) -> CoeffVector:
    """Apply the surrogate potential sum_r alpha_r prod_l T_{r_l}(X_l/L).

    ``axis_order`` overrides the application order of the per-term factors
    (first entry applied first); it exists for diagnostics, the default
    (dim, dim-1, ..., 1) is the defined behavior on reduced sets.
    """
    _check_vector(iset, v)
    _check_approx(iset, approx)
    out = get_applier(iset).apply_polynomial(approx, v.data, axis_order)
    if not np.all(np.isfinite(out)):
        raise RuntimeError("fast application produced non-finite values; "
                           "check surrogate coefficients and halfwidth")
    return CoeffVector(iset, out)


def apply_hamiltonian(iset: IndexSet, approx: ChebApprox,
                      v: CoeffVector) -> CoeffVector:
    """(D + W_pol) v with D the oscillator diagonal sum_l (j_l + 1/2)."""
    _check_vector(iset, v)
    _check_approx(iset, approx)
    out = get_applier(iset).apply_hamiltonian(approx, v.data)
    if not np.all(np.isfinite(out)):
        raise RuntimeError("Hamiltonian application produced non-finite values")
    return CoeffVector(iset, out)


def square_sum_apply(iset: IndexSet, v: CoeffVector) -> CoeffVector:
    """(sum_l x_l**2) v via the exact banded Galerkin entries on the set."""
    _check_vector(iset, v)
    return CoeffVector(iset, get_applier(iset).apply_square_sum(v.data))
