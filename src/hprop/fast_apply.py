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

Every sweep runs in the set's order.  An axis l where each row j with
j_l >= 1 has j - e_l s rows back, and rows with j_l = 0 have no down
neighbor, slides: its gathers are slices by s.  Every cube axis does, and
so does the last axis of a downward-closed set, with s = 1.  That is exact:
a slice partner that is not a neighbor meets c_l = 0, as the padded zero.
Only the other axes gather.

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

The trie depends on the surrogate's degree array and the axis order only,
not on its coefficients, so it is compiled once into an immutable plan: the
nodes (axis, top degree, weight slots, kids by degree, degree-0 kid), one
int array mapping each term to its weight slot, the walk's depth and the
axes it sweeps.  An apply sums the coefficients into their slots with one
bincount, which adds each slot's terms in term order, and then only sweeps
and adds, in scratch rows allocated once per apply: three per live trie
level and one shared temporary.

A separable surrogate (no term with two nonzero degrees) is c_0 plus one
series p_a(X_a / L) per axis.  On a fibre of m rows along an axis the set
is closed along, X_a is the Jacobi matrix J_{m-1} with off-diagonal
sqrt(k / 2), whose eigenpairs are the m-point Gauss-Hermite nodes and
Hermite functions (Golub & Welsch 1969): there p_a(X_a / L) is the small
dense block p_a(J_{m-1} / L), the quadrature Galerkin matrix in DVR form.
Where blocks pay, such a surrogate applies as c_0 + sum_a B_a: per axis, v
moves into an order that groups the fibres by length, digit-major, so that
F fibres of length m form one (m, F) block; one m x m matmul per length;
and the product moves back.  The blocks come from one Chebyshev recurrence
run on every length at once, with no eigendecomposition.  The route is
chosen with the plan, once per degree array, and blocks are taken only
where (i) every axis with terms has a fibre order, the rows sorted by
their other components, then by j_a (a shift of 1 is one; cubes keep their
slides), (ii) the blocks cost no more than the banded form of R_a sweeps,
sum over fibres of m**2 <= (2 R_a + 1) n on each such axis, and (iii) the
set has at least ``_BLOCK_ROWS`` rows.  The result moves from the walk's at
rounding level only.

Within every term the axis factors are applied from the last axis inward to
the first, matching the product as written.  On full cubes the factors
commute and the order is irrelevant; on reduced sets it is part of the
operation's definition, so the order is fixed.
"""

from __future__ import annotations

import warnings
import weakref
from typing import NamedTuple

import numpy as np

from .index_set import CoeffVector, IndexSet
from .potential_approx import ChebApprox


# Separable surrogates apply as per-fibre blocks only on sets this large.
# A block build costs a few warm walk applies, and a small set is often
# applied once per surrogate (rederr's 3-D crosses of 741 and 1 099 rows).
# Measured with torsional degree 8 and complex vectors on a 2-core box, as
# medians over 15 fresh appliers in two runs, the blocks' build and first
# apply cost 1.8-2.9 warm walk applies more than a cold walk's on the 3-D
# crosses of K = 40, 60 and 80, 0.2-1.2 more on the 4-D to 6-D crosses of
# 418-1 684 rows and 0.2-0.9 more above the crossover (4-D K = 100, 3 579
# rows; 6-D K = 40, 2 897 rows).  A warm apply takes 0.26-0.66 of the
# walk's on all of them.
_BLOCK_ROWS = 2048


class _Node(NamedTuple):
    """One trie node of a compiled walk, run by ``PolynomialApplier._run``.

    A node off the last axis sweeps T_1 .. T_top on axis index ``axis``, in
    the three scratch rows of its ``level``: the terms finishing at T_k sum
    into weight ``slot + k``, ``kids[k - 1]`` (or None) runs the terms going
    on from T_k, and ``zero`` those with degree 0 here, from this node's
    input once its sweep is done.  A last-axis node (``kids`` None) only
    adds weight ``slot + k`` times its input into z[k].
    """

    axis: int
    top: int
    slot: int
    level: int
    kids: tuple | None
    zero: _Node | None


class _Plan(NamedTuple):
    """The walk of one degree array in one axis order.

    ``slot[t]`` is term t's weight slot: its last-axis degree k for the
    root's slots w0[0 .. top] of terms with no degree before the last axis,
    else a slot of the node where it finishes.  ``depth`` counts the sweep
    levels live at once, ``zrows`` the rows of z (0 when no walked term
    reaches the last axis) and ``reads`` lists the axis indices swept.
    """

    degrees: np.ndarray
    slot: np.ndarray
    nslots: int
    top: int
    zrows: int
    depth: int
    root: _Node | None
    reads: tuple[int, ...]


class _Blocks(NamedTuple):
    """The block route of one separable degree array.

    ``axes`` lists the axis indices that carry terms, ``top`` the largest
    degree and ``slot[t]`` term t's place in the (len(axes), top + 1)
    coefficient table: its axis's row and its degree, the constant term
    at T_0 of the first row.
    """

    degrees: np.ndarray
    axes: tuple[int, ...]
    top: int
    slot: np.ndarray


def _compile(degrees: np.ndarray, order: tuple[int, ...]) -> _Plan:
    """Group the terms of ``degrees`` into the trie walked in ``order``."""
    N = len(order)
    degs = degrees[:, [a - 1 for a in order]]
    last, walked = degs[:, -1], degs[:, :-1].any(axis=1)
    top = int(last.max())
    slot = last.copy()
    nslots, depth, reads = top + 1, 1, set()

    def node(terms, col, level):
        nonlocal nslots, depth
        a, deg = order[col] - 1, degs[terms, col]
        base, top = nslots - 1, int(deg.max())
        nslots += top
        if col == N - 1:
            slot[terms] = base + deg
            return _Node(a, top, base, level, None, None)
        depth = max(depth, level + 1)
        # a term finishing here has degree >= 1 on this axis: the root gets
        # only walked terms, and a child only terms its parent left open
        going = degs[terms, col + 1:].any(axis=1)
        slot[terms[~going]] = base + deg[~going]
        kids, zero = [None] * top, None
        for k in sorted(set(deg[going].tolist())):
            group = terms[going & (deg == k)]
            if k:
                kids[k - 1] = node(group, col + 1, level + 1)
            else:
                zero = node(group, col + 1, level)
        reads.add(a)
        return _Node(a, top, base, level, tuple(kids), zero)

    root = node(np.flatnonzero(walked), 0, 0) if walked.any() else None
    zrows = (top + 1) * bool(last[walked].any())
    if top:
        reads.add(order[-1] - 1)
    degrees = degrees.copy()
    degrees.flags.writeable = slot.flags.writeable = False
    return _Plan(degrees, slot, nslots, top, zrows, depth, root,
                 tuple(sorted(reads)))


class PolynomialApplier:
    """Workspace-backed applier bound to one index set.

    On construction it reads each axis's down table once: for its constant
    shift, else, where the set is closed along the axis, for its fibre
    order, kept as each row's position in it; the x**2 ladder and the block
    route read those orders.  ``_shift[a]`` is axis index a's slide shift,
    0 where it gathers.  Only the axes with no constant shift keep their
    neighbor tables, the set's own read-only copies: gathered vectors carry
    a zero in an extra last slot, which an absent neighbor's -1 picks.  Each
    axis swept has one coupling table c_a = sqrt(k_a / 2), padded with a
    zero in slot n, built on first use in the vector's dtype with the sweep
    factor 2 / L folded in and cached per (dtype, factor); the x**2 ladder
    and the oscillator diagonal are typed the same way.

    It also keeps one plan per axis order, keyed by the full degree array
    it was made from: the block route of a separable surrogate where blocks
    pay, else the compiled walk.  A run whose surrogate keeps its degree set
    chooses once; a surrogate with another degree array (terms can cross the
    drop threshold as time moves) is planned anew and replaces that order's
    plan, so the cache holds one plan per order.  The block route keeps, per
    axis, its block order (each row's position, and the rows in that order)
    and its fibre lengths, built on first use, and the blocks last built,
    keyed by the surrogate's halfwidth, degrees and coefficients: a
    time-independent surrogate builds them once per set.

    Tables, plans and blocks are never changed once stored, and a new one
    replaces the old whole, so a caller keeps using the one it looked up;
    the scratch rows are allocated inside each apply.  One applier can
    therefore serve concurrent callers.
    """

    def __init__(self, iset: IndexSet):
        self._iset = weakref.ref(iset)
        self.size, self.dim, self.indices = iset.size, iset.dim, iset.indices
        self._bound = iset.bound
        self._down, self._up, self._fibre, self._shift = [], [], [], []
        for a, digits in enumerate(iset.indices.T):
            down, up = iset.neighbor_ordinals(a + 1)
            s = _constant_shift(down, digits)
            self._shift.append(s)
            self._fibre.append(None if s else _fibre_order(down, digits))
            # an axis that slides reads no table again
            self._down.append(None if s else down)
            self._up.append(None if s else up)
        self._tables = {}
        self._plans = {}
        self._last_blocks = None

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

    def _axis_table(self, coupling, a, dtype, pos=slice(-1)):
        """coupling(k) on axis index ``a`` as a padded ``dtype`` table, each
        row's entry at its position ``pos`` (by default the set's order);
        evaluated once per digit value."""
        out = np.zeros(self.size + 1, dtype=dtype)
        out[pos] = coupling(np.arange(self._bound + 1.0))[self.indices[:, a]]
        return out

    def _diagonal(self, dtype):
        """The oscillator diagonal sum_l (j_l + 1/2), in ``dtype``."""
        return self._table(("diagonal", dtype), lambda: (
            self.indices + 0.5).sum(axis=1).astype(dtype))

    def _plan(self, degrees: np.ndarray,
              order: tuple[int, ...]) -> _Plan | _Blocks:
        """The route of ``degrees`` in ``order``, cached per order: blocks
        where they pay, else the compiled walk."""
        plan = self._plans.get(order)
        if plan is None or not np.array_equal(plan.degrees, degrees):
            plan = self._plans[order] = self._blocks_plan(degrees) or \
                _compile(degrees, order)
        return plan

    def _blocks_plan(self, degrees: np.ndarray) -> _Blocks | None:
        """The block route of a separable ``degrees``, or None where the
        walk stays: on a set below ``_BLOCK_ROWS``, where an axis with
        terms has no fibre order, or where its blocks cost more than
        2 R_a + 1 products per row, the banded cost of R_a sweeps."""
        n, N = self.size, self.dim
        if n < _BLOCK_ROWS or ((degrees > 0).sum(axis=1) > 1).any():
            return None
        tops = degrees.max(axis=0, initial=0)
        axes = tuple(np.flatnonzero(tops).tolist())
        if not axes or any(
                (self._shift[a] != 1 and self._fibre[a] is None)
                or sum(F * m * m for m, F in self._groups(a)[2])
                > (2 * tops[a] + 1) * n for a in axes):
            return None
        top = int(tops.max())
        row = np.zeros(N, dtype=np.int64)
        row[list(axes)] = np.arange(len(axes)) * (top + 1)
        slot = row[degrees.argmax(axis=1)] + degrees.max(axis=1)
        degrees = degrees.copy()
        degrees.flags.writeable = slot.flags.writeable = False
        return _Blocks(degrees, axes, top, slot)

    def _groups(self, a):
        """Axis index ``a``'s block order, as each row's position and the
        rows in that order, and its (length, fibres) groups; built on first
        use."""
        return self._table(("groups", a), lambda: _block_order(
            self.indices[:, a], self._fibre_rows(a)))

    def _fibre_rows(self, a):
        """The rows in axis index ``a``'s fibre order (None where it has
        none), built on first use."""
        pos = self._fibre[a]
        return None if pos is None else self._table(
            ("fibre rows", a), lambda: _rows(pos))

    def _blocks(self, plan: _Blocks, approx: ChebApprox):
        """Per axis of ``plan``, its (length m, fibres, block) groups for
        ``approx``, with one block p_a(J_{m-1} / L) per fibre length.

        The last blocks built are kept with the halfwidth, degrees and
        coefficients they were built from, and replaced whole, so a
        time-independent surrogate builds them once per set.
        """
        last = self._last_blocks
        if last is not None and last[0] == approx.halfwidth and \
                np.array_equal(last[1], approx.degrees) and \
                np.array_equal(last[2], approx.coeffs):
            return last[3]
        groups = [self._groups(a)[2] for a in plan.axes]
        lengths = sorted({m for g in groups for m, _ in g})
        cheb, src, dst = self._table(
            ("blocks", plan.top, approx.halfwidth, tuple(lengths)),
            lambda: _chebyshev_blocks(lengths, plan.top, approx.halfwidth))
        coeffs = np.bincount(plan.slot, approx.coeffs,
                             minlength=len(plan.axes) * (plan.top + 1))
        at = np.cumsum([0] + [m * m for m in lengths])
        flat = np.zeros((len(plan.axes), at[-1]))
        flat[:, dst] = np.take(coeffs.reshape(len(plan.axes), -1) @ cheb, src,
                               axis=1)
        at = dict(zip(lengths, at.tolist()))
        blocks = [[(m, F, row[at[m]:at[m] + m * m].reshape(m, m))
                   for m, F in g] for row, g in zip(flat, groups)]
        self._last_blocks = (approx.halfwidth, approx.degrees.copy(),
                             approx.coeffs.copy(), blocks)
        return blocks

    def _apply_blocks(self, plan: _Blocks, approx: ChebApprox,
                      v: np.ndarray, dtype) -> np.ndarray:
        """c_0 + sum_a B_a applied to v, axis by axis: v moves into the
        axis's block order, each group of F fibres of length m is an (m, F)
        block that its m x m p_a(J_{m-1} / L) multiplies in one matmul, and
        the product moves back.  A complex vector is multiplied as its
        (m, 2F) float view, so the real blocks need no cast."""
        n = self.size
        w = 2 if dtype.kind == "c" else 1
        dst = np.empty(n, dtype=dtype)
        fdst = dst.view(np.float64)
        acc = None
        for a, groups in zip(plan.axes, self._blocks(plan, approx)):
            pos, rows, _ = self._groups(a)
            fsrc = v[rows].astype(dtype, copy=False).view(np.float64)
            start = 0
            for m, F, block in groups:
                stop = start + w * m * F
                (np.matmul if m > 1 else np.multiply)(
                    block, fsrc[start:stop].reshape(m, w * F),
                    out=fdst[start:stop].reshape(m, w * F))
                start = stop
            if acc is None:
                acc = dst[pos]
            else:
                acc += dst[pos]
        return acc

    def _coupling(self, dtype, factor, reads):
        """The padded tables of 2 scale X on the axis indices listed in
        ``reads``, by axis; None elsewhere.  Each table is cached on its
        own, so the plans that read it share it."""
        def build():
            tables = [None] * self.dim
            for a in reads:
                tables[a] = self._table(("x", dtype, factor, a), lambda: (
                    self._axis_table(lambda k: np.sqrt(k / 2.0) * factor,
                                     a, dtype)))
            return tables

        return self._table(("x", dtype, factor, reads), build)

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
        self._check_rows(v)
        if approx.dim != N:
            raise ValueError(f"surrogate dimension {approx.dim} does not "
                             f"match index set dimension {N}")
        if axis_order is None:
            order = tuple(range(N, 0, -1))
        else:
            order = tuple(int(a) for a in axis_order)
            if sorted(order) != list(range(1, N + 1)):
                raise ValueError(f"axis_order must permute 1..{N}")
        dtype = np.result_type(v.dtype, np.float64)
        acc = np.zeros(n, dtype=dtype)
        if not approx.nterms:
            return acc
        plan = self._plan(approx.degrees, order)
        if isinstance(plan, _Blocks):
            return self._apply_blocks(plan, approx, v, dtype)
        # each slot sums its terms in term order, as bincount always does
        w = np.bincount(plan.slot, approx.coeffs,
                        minlength=plan.nslots).tolist()
        # one block: three sweep rows per level, one temporary, z, and last
        # the padded input
        rows = list(np.zeros((3 * plan.depth + 2 + plan.zrows, n + 1),
                             dtype=dtype))
        u = rows.pop()
        u[:n] = v
        # every sweep multiplies by 2 scale X; T_1 and the last Clenshaw
        # step halve once
        coupling = self._coupling(dtype, 2.0 / approx.halfwidth, plan.reads)
        tmp = rows[3 * plan.depth]
        z = rows[3 * plan.depth + 1:]
        if plan.root is not None:
            self._run(plan.root, u, w, coupling, rows, tmp, z, acc)
        # b_k = c_k + 2 scale X b_{k+1} - b_{k+2} (b_{top+1} = b_{top+2} = 0)
        # in row k % 3; the sum c_0 + scale X b_1 - b_2 lands in row 0
        top, a = plan.top, order[-1] - 1
        for k in range(top, -1, -1):
            b = rows[k % 3]
            if k < top:
                self._times_x(a, coupling[a], rows[(k + 1) % 3], b[:n], tmp)
                if not k:
                    b *= 0.5
            else:
                b[:] = 0.0
            if k < top - 1:
                b -= rows[(k + 2) % 3]
            if w[k] != 0.0:
                np.multiply(u, w[k], out=tmp)
                b += tmp
            if plan.zrows:
                b += z[k]
        acc += rows[0][:n]
        return acc

    def _check_rows(self, v: np.ndarray) -> None:
        """Refuse a vector that is not one entry per row of the set."""
        if v.shape != (self.size,):
            raise ValueError(f"vector of shape {v.shape} does not match the "
                             f"index set's {self.size} rows")

    def _times_x(self, a, c, src, out, tmp) -> None:
        """out = c * src[down] + (c * src)[up] on axis index ``a``.

        ``src``, the table ``c`` and the scratch ``tmp`` are padded.  An
        axis that slides by s takes the gathers as slices.
        """
        s = self._shift[a]
        if s:
            return _slide(s, c, src, out, tmp)
        np.multiply(c, src, out=tmp)
        np.multiply(src[self._down[a]], c[:-1], out=out)
        out += tmp[self._up[a]]

    def _run(self, node, src, w, coupling, rows, tmp, z, acc) -> None:
        """Add the terms under ``node``, applied to the padded ``src``.

        ``w`` holds the weights by slot, ``coupling`` the tables of
        2 scale X by axis, ``rows`` the padded scratch rows (slot n stays
        zero), ``tmp`` the shared temporary and ``z`` the last-axis sums.
        """
        n, slot, a = self.size, node.slot, node.axis
        if node.kids is None:       # a last-axis node: z[k] += w * src
            for k in range(1, node.top + 1):
                if w[slot + k] != 0.0:
                    np.multiply(src, w[slot + k], out=tmp)
                    z[k] += tmp
            return
        base = 3 * node.level
        prev, cur = None, src
        for k in range(1, node.top + 1):
            # T_k = 2 scale X T_{k-1} - T_{k-2} (T_1 = scale X src) into
            # the level's row that holds T_{k-3}
            nxt = rows[base + (k - 1) % 3]
            self._times_x(a, coupling[a], cur, nxt[:n], tmp)
            if k > 1:
                nxt -= prev
            else:
                nxt *= 0.5
            prev, cur = cur, nxt
            if w[slot + k] != 0.0:
                np.multiply(cur, w[slot + k], out=tmp)
                acc += tmp[:n]
            kid = node.kids[k - 1]
            if kid is not None:
                self._run(kid, cur, w, coupling, rows, tmp, z, acc)
        # the degree-0 group sees src itself, and this level's rows are free
        if node.zero is not None:
            self._run(node.zero, src, w, coupling, rows, tmp, z, acc)

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
        self._check_rows(v)
        dtype = np.result_type(v.dtype, np.float64)
        for a, s in enumerate(self._shift):
            if not s and self._fibre[a] is None:
                raise ValueError(f"index set is not closed along axis "
                                 f"{a + 1}: the x**2 ladder would drop "
                                 f"couplings")
        # an axis with a constant shift s finds its partners 2 s rows away;
        # every other axis 2 rows away in its fibre order, where v moves in
        # and each half of the ladder moves back
        d2 = self._table(("x**2", dtype), lambda: [
            self._axis_table(lambda k: np.sqrt(k * (k - 1.0)) / 2.0, a, dtype,
                             slice(-1) if s else self._fibre[a])
            for a, s in enumerate(self._shift)])
        tmp = np.empty(n, dtype=dtype)
        out = self._diagonal(dtype) * v    # sum_l (j_l + 1/2): the diagonal
        for a, s in enumerate(self._shift):
            pos, src = None, v
            if not s:
                pos, s, src = self._fibre[a], 1, v[self._fibre_rows(a)]
            if 2 * s >= n:      # no row has j_a >= 2
                continue
            m, c = n - 2 * s, d2[a][2 * s:n]
            if pos is None:
                np.multiply(c, src[:m], out=tmp[:m])
                out[2 * s:] += tmp[:m]
                np.multiply(c, src[2 * s:], out=tmp[:m])
                out[:m] += tmp[:m]
            else:
                tmp[:2] = 0.0
                np.multiply(c, src[:m], out=tmp[2:])
                out += tmp[pos]
                np.multiply(c, src[2:], out=tmp[:m])
                tmp[m:] = 0.0
                out += tmp[pos]
        return out


def _slide(s, c, src, out, tmp) -> None:
    """out = c * src[down] + (c * src)[up] where down is s rows back."""
    n = out.size
    out[:s] = 0.0
    np.multiply(c[s:n], src[:n - s], out=out[s:])
    np.multiply(c[s:n], src[s:n], out=tmp[:n - s])
    out[:n - s] += tmp[:n - s]


def _fibre_order(down: np.ndarray, digits: np.ndarray) -> np.ndarray | None:
    """Each row's position once the rows are sorted by their other digits
    and then by ``digits``; None unless every row with digit >= 1 has its
    down neighbor.

    A fibre (the rows that differ in this digit only) is then 0 .. m in
    order, so its base row, found by pointer doubling on ``down``, and the
    fibre sizes place every row without a sort.
    """
    has = down >= 0
    if not np.array_equal(has, digits > 0):
        return None
    base = np.where(has, down, np.arange(down.size))
    for _ in range(int(digits.max()).bit_length()):
        base = base[base]
    count = np.bincount(base, minlength=down.size)
    return (np.cumsum(count) - count)[base] + digits


def _block_order(digits: np.ndarray,
                 fibre_rows: np.ndarray | None) -> tuple[np.ndarray, ...]:
    """Each row's position once an axis's fibres are grouped by length and
    laid out digit-major in each group, the rows in that order, and the
    groups' (length, fibres).

    ``fibre_rows`` lists the rows in the axis's fibre order, None where the
    set's order is one.  A stable sort by (length, digit) keeps the fibres
    of a group in fibre order, so the f-th of a group's F fibres of length
    m puts digit d at d * F + f past the group's start: the group is an
    (m, F) block.
    """
    seq = digits if fibre_rows is None else digits[fibre_rows]
    lens = np.diff(np.flatnonzero(seq == 0), append=seq.size)
    top = int(lens.max())
    key = np.repeat(lens, lens) * top + seq
    # a stable sort of small ints is a radix sort
    rows = np.argsort(key.astype(np.min_scalar_type(top * top)),
                      kind="stable")
    if fibre_rows is not None:
        rows = fibre_rows[rows]
    count = np.bincount(lens).tolist()
    return _rows(rows), rows, tuple(
        (m, F) for m, F in enumerate(count) if F)


def _rows(pos: np.ndarray) -> np.ndarray:
    """The rows in the order that puts each row at ``pos``."""
    rows = np.empty_like(pos)
    rows[pos] = np.arange(pos.size)
    return rows


def _chebyshev_blocks(lengths, top: int,
                      halfwidth: float) -> tuple[np.ndarray, ...]:
    """T_k(J_{m-1} / L) for k = 0 .. top and each fibre length m in
    ``lengths``, as a (top + 1, rows x probes) stack, and where its entries
    go in the dense blocks laid end to end.

    The fibres run end to end with a zero coupling at each start, and the
    recurrence sweeps 2 top + 1 probes at once: probe p sums the unit
    vectors e_j with j = p mod (2 top + 1).  T_k has bandwidth k <= top, so
    a row's probe entries are its band, and the entry of row r, probe p is
    the block entry (r, j) for the one j within top of r with that residue,
    when j is in r's fibre; every other block entry is zero.
    """
    lengths = np.asarray(lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    rows, probes = starts.size, 2 * top + 1
    r = np.arange(rows)
    c = np.sqrt((r - starts) / 2.0)[1:, None] / halfwidth
    cheb = np.zeros((top + 1, rows, probes))
    cheb[0, r, r % probes] = 1.0
    for k in range(1, top + 1):
        prev, out = cheb[k - 1], cheb[k]
        np.multiply(c, prev[:-1], out=out[1:])
        out[:-1] += c * prev[1:]
        if k > 1:
            out *= 2.0
            out -= cheb[k - 2]
    i = (r - starts)[:, None]
    j = i - top + (np.arange(probes) - r[:, None] + top) % probes
    fibre = np.repeat(np.arange(lengths.size), lengths)[:, None]
    inside = (j >= 0) & (j < lengths[fibre])
    offset = np.cumsum(lengths * lengths) - lengths * lengths
    src = np.flatnonzero(inside)
    dst = (offset[fibre] + i * lengths[fibre] + j)[inside]
    return cheb.reshape(top + 1, -1), src, dst


def _constant_shift(down: np.ndarray, digits: np.ndarray) -> int:
    """s if down[p] == p - s where digits[p] >= 1 and -1 elsewhere, else 0."""
    first = int(np.argmax(digits > 0))
    s = first - int(down[first])
    want = np.where(digits > 0, np.arange(-s, down.size - s), -1)
    return s if 0 < s <= first and np.array_equal(down, want) else 0


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
