"""Matrix-free application of polynomial potentials in coefficient space.

Multiplication by the coordinate x_l acts on Hermite coefficients as the
sparse two-band operation

    (X_l v)_j = sqrt(j_l / 2) * v_{j - e_l} + sqrt((j_l + 1) / 2) * v_{j + e_l},

where a missing neighbor, whether outside the cube or pruned away by a
reduced index set, contributes zero.  Both bands come from one table per
axis, c_l[j] = sqrt(j_l / 2): the upper coefficient of row j is c_l at its
up neighbor j + e_l, so X_l v = c_l * v[down_l] + (c_l * v)[up_l].  The
tables are kept in the vector's dtype with the recurrence factor 2 / L
folded in, so a sweep is two gathers, two like-typed multiplies and an add
(when 2 / L is a power of two, as for L = 16, folding it in rounds nothing).
Chebyshev polynomials of X_l / L then follow from the three-term recurrence
on whole coefficient vectors, and a tensor surrogate
sum_r alpha_r prod_l T_{r_l}(X_l / L) is applied at cost
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

    It keeps the set's neighbor tables, the only copy: gathered vectors
    carry a zero in an extra last slot, which an absent neighbor's -1 picks.
    Each axis has one coupling table c_a = sqrt(k_a / 2), padded with a zero
    in slot n, built on first use in the vector's dtype with the sweep
    factor 2 / L folded in and cached per (dtype, factor); the x**2 ladder
    and the oscillator diagonal are typed the same way.  Racing builders
    make equal tables, and the per-call scratch vectors are allocated inside
    each apply, so one applier can serve concurrent callers.
    """

    def __init__(self, iset: IndexSet):
        N = iset.dim
        self._iset = weakref.ref(iset)
        self.size, self.dim, self.indices = iset.size, N, iset.indices
        tables = [iset.neighbor_ordinals(axis) for axis in range(1, N + 1)]
        self._down = [down for down, _ in tables]
        self._up = [up for _, up in tables]
        self._tables = {}

    @property
    def iset(self) -> IndexSet | None:
        """The set, held weakly: it keys the applier cache (None once gone)."""
        return self._iset()

    def _table(self, key, build):
        """The table cached under ``key``, built by ``build()`` on first use."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = build()
        return table

    def _per_axis(self, coupling, dtype):
        """coupling(k_a) on every axis, as padded ``dtype`` tables."""
        out = np.zeros((self.dim, self.size + 1), dtype=dtype)
        for a, row in enumerate(out):
            row[:-1] = coupling(self.indices[:, a].astype(np.float64))
        return list(out)

    def _diagonal(self, dtype):
        """The oscillator diagonal sum_l (j_l + 1/2), in ``dtype``."""
        return self._table(("diagonal", dtype), lambda: (
            self.indices + 0.5).sum(axis=1).astype(dtype))

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
        if approx.dim != N:
            raise ValueError(f"surrogate dimension {approx.dim} does not "
                             f"match index set dimension {N}")
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
        # every sweep multiplies by 2 scale X; T_1 and the last Clenshaw
        # step halve once
        factor = 2.0 / approx.halfwidth
        coupling = self._table(("x", dtype, factor), lambda: self._per_axis(
            lambda k: np.sqrt(k / 2.0) * factor, dtype))
        if walked.any():
            self._walk(order, degs[walked], approx.coeffs[walked], coupling,
                       u, acc, z, bufs)
        # b_k = c_k + 2 scale X b_{k+1} - b_{k+2} (b_{top+1} = b_{top+2} = 0)
        # in row k % 3; the sum c_0 + scale X b_1 - b_2 lands in row 0
        a = order[-1] - 1
        for k in range(top, -1, -1):
            b = bufs[k % 3, :n]
            if k < top:
                self._times_x(a, coupling[a], bufs[(k + 1) % 3], b, bufs[3])
                if not k:
                    b *= 0.5
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

    def _times_x(self, a, c, src, out, tmp) -> None:
        """out = c * src[down] + (c * src)[up] on axis index ``a``.

        ``src``, the table ``c`` and the scratch ``tmp`` are padded.
        """
        np.multiply(c, src, out=tmp)
        np.multiply(src[self._down[a]], c[:-1], out=out)
        out += tmp[self._up[a]]

    def _walk(self, order, degs, coeffs, coupling, u, acc, z,
              bufs=None) -> None:
        """Add sum_t coeffs[t] * prod_i T_{degs[t, i]}(scale X_{order[i]}) u.

        Factors apply in ``order``, whose first axis is this node's.  A node
        off the last axis runs one sweep up to its terms' largest degree,
        adds finished terms to ``acc`` and recurses per degree, so terms
        sharing a prefix share its sweeps; on the last axis it only adds
        coeffs * u into z[degree].  ``coupling`` holds the tables of
        2 scale X per axis.  ``u`` is padded with a zero in slot n;
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
        # a term finishing here has degree >= 1 on this axis: the root gets
        # only walked terms, and a child only terms its parent left open
        weights = np.bincount(deg[leaf], coeffs[leaf],
                              minlength=top + 1).tolist()
        kids = set(deg[~leaf].tolist())
        a = order[0] - 1
        prev, cur = None, u
        for k in range(1, top + 1):
            # T_k = 2 scale X T_{k-1} - T_{k-2} (T_1 = scale X u) into the
            # scratch row that holds T_{k-3}; slot n stays zero
            nxt = bufs[(k - 1) % 3]
            self._times_x(a, coupling[a], cur, nxt[:n], bufs[3])
            if k > 1:
                nxt[:n] -= prev[:n]
            else:
                nxt[:n] *= 0.5
            prev, cur = cur, nxt
            if weights[k] != 0.0:
                acc += weights[k] * cur[:n]
            if k in kids:
                group = ~leaf & (deg == k)
                self._walk(order[1:], degs[group, 1:], coeffs[group],
                           coupling, cur, acc, z)
        # the degree-0 group sees u itself, and this node's scratch is free
        if 0 in kids:
            group = ~leaf & (deg == 0)
            self._walk(order[1:], degs[group, 1:], coeffs[group], coupling,
                       u, acc, z, bufs)

    def apply_hamiltonian(self, approx: ChebApprox, v: np.ndarray) -> np.ndarray:
        out = self.apply_polynomial(approx, v)
        out += self._diagonal(out.dtype) * v
        return out

    # -- exact quadratic confinement --------------------------------------------

    def apply_square_sum(self, v: np.ndarray) -> np.ndarray:
        """(sum_l x_l**2) v through the exact restricted Galerkin entries.

        The Galerkin matrix of x_l**2 is banded with closed-form entries:
        j_l + 1/2 on the diagonal and d_l = sqrt(j_l (j_l - 1)) / 2 two
        below, so the entry two above is d_l read at the partner, as for X.
        This is the restriction of the exact matrix, not the square of the
        restricted ladder: the diagonal keeps its full value j_l + 1/2 even
        where first neighbors are pruned away, so quadratic confinement
        shifts carry no reduction error at all.
        """
        n = self.size
        dtype = np.result_type(v.dtype, np.float64)
        # downward closure puts j + e_l in the set whenever j + 2 e_l is,
        # so the two-step tables compose from the one-step ones
        down2, up2 = self._table("x**2 ordinals", lambda: (
            [np.append(d, -1)[d] for d in self._down],
            [np.append(u, -1)[u] for u in self._up]))
        d2 = self._table(("x**2", dtype), lambda: self._per_axis(
            lambda k: np.sqrt(k * (k - 1.0)) / 2.0, dtype))
        pad = np.zeros(n + 1, dtype=dtype)
        pad[:n] = v
        tmp = np.empty(n + 1, dtype=dtype)
        out = self._diagonal(dtype) * v    # sum_l (j_l + 1/2): the diagonal
        for a in range(self.dim):
            out += d2[a][:-1] * pad[down2[a]]
            np.multiply(d2[a], pad, out=tmp)
            out += tmp[up2[a]]
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
