"""Multi-index sets for tensor-product spectral bases.

An index set collects multi-indices k = (k_1, ..., k_N) of nonnegative basis
orders, one per coordinate direction.  Two built-in families are provided:

* the full cube  {k : 0 <= k_l <= K for all l}  of size (K+1)^N, and
* the hyperbolic cross  {k : prod_l (1 + k_l) <= K + 1},  which grows only
  like K log(K)^(N-1) and is the set the fast potential application targets.

Both are downward closed: removing one from any positive component never
leaves the set.  Arbitrary downward-closed sets are accepted through
:func:`from_indices`.

A set is nothing but its rows: N is their column count, K their largest
component, and the set is a full cube exactly when it has (K+1)^N rows.

Each set fixes a canonical ordering of its members, lexicographic in
(k_1, ..., k_N).  Coefficient vectors (:class:`CoeffVector`) are stored
densely in that ordering; the ordinal of an index is recovered by binary
searches over int64 prefix keys (:meth:`IndexSet.locate`): the axes are cut
into runs, and a run's key reads its components as digits in base K + 1
after the rank of the row's prefix before the run.  Up to 8-D at K = 60 one
run covers every axis; the position of a row's last key is its ordinal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Largest full cube or interpolation grid built; what the tests and the
# benchmark build (81**3 cubes, 9**6 grids) stays far below it.
MAX_ELEMENTS = 1 << 24

# Every key of a stored row, or of a searched row in range, stays below this,
# clear of int64's 2**63.
_KEY_LIMIT = 1 << 62


class IndexSet:
    """An immutable, canonically ordered collection of multi-indices.

    Instances should be built through :func:`build_full`,
    :func:`build_hyperbolic` or :func:`from_indices`.  The ``indices`` array
    has shape (size, dim), is sorted lexicographically and is read-only;
    ``dim`` and ``bound`` are read off it.  Beside the rows it keeps one
    sorted array of distinct int64 keys per run of axes, so a set must have
    size * (bound + 1) <= 2**62.
    """

    __slots__ = ("dim", "bound", "indices", "_levels", "__weakref__")

    def __init__(self, indices: np.ndarray):
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[1] == 0:
            raise ValueError("indices must have shape (size, dim > 0)")
        if indices.shape[0] == 0 or indices.min() < 0:
            raise ValueError("an index set needs at least one index and "
                             "nonnegative components")
        (size, dim), bound = indices.shape, int(indices.max())
        if size * (bound + 1) > _KEY_LIMIT:
            raise ValueError(f"{size} rows with components up to {bound} do "
                             "not fit the int64 row keys")
        # Each run of axes is as long as keeps every key below _KEY_LIMIT.
        # The rows ascend strictly exactly when every level's keys ascend and
        # the last level's strictly, which locate() relies on.
        levels, rank, distinct, lo = [], 0, 1, 0
        while lo < dim:
            hi = lo + 1
            while (hi < dim and
                   distinct * (bound + 1) ** (hi + 1 - lo) <= _KEY_LIMIT):
                hi += 1
            keys = _run_keys(rank, indices, lo, hi, bound + 1)
            step = np.diff(keys)
            if np.any(step <= 0 if hi == dim else step < 0):
                raise ValueError("indices must be distinct and in canonical "
                                 "(lexicographic) order")
            if hi < dim:        # on the last level every key is new
                new = np.concatenate(([True], step > 0))
                keys, rank = keys[new], np.cumsum(new) - 1
            levels.append((lo, hi, keys))
            distinct, lo = keys.size, hi
        indices.setflags(write=False)
        self.dim = dim
        self.bound = bound
        self.indices = indices
        self._levels = tuple(levels)

    # -- basic container protocol -------------------------------------------------

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def __repr__(self) -> str:
        return f"IndexSet(dim={self.dim}, bound={self.bound}, size={self.size})"

    def locate(self, rows) -> np.ndarray:
        """Ordinals of ``rows`` (shape (..., dim)), -1 where a row is absent."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[-1:] != (self.dim,):
            raise ValueError(f"rows must have trailing dimension {self.dim}, "
                             f"got shape {rows.shape}")
        flat = rows.reshape(-1, self.dim)
        # The ordinals outlive every temporary below.  Allocated first, they
        # do not sit in the heap above the space the temporaries free, which
        # the process could then not give back.
        out = np.full(len(flat), -1, dtype=np.intp)
        # A negative component reads as a huge unsigned one.  An out-of-range
        # row's key is garbage, but the row is already not found.  Columns
        # one at a time: numpy reduces a short last axis slowly.
        found = np.ones(len(flat), dtype=bool)
        for column in flat.view(np.uint64).T:
            found &= column <= self.bound
        pos = 0
        for lo, hi, keys in self._levels:
            key = _run_keys(pos, flat, lo, hi, self.bound + 1)
            # a row past the last key is not found; clipping it keeps the
            # next level's prefix rank below the number of prefixes
            pos = np.searchsorted(keys, key)
            np.minimum(pos, keys.size - 1, out=pos)
            found &= keys[pos] == key
        np.copyto(out, pos, where=found)
        return out.reshape(rows.shape[:-1])

    def same_as(self, other: "IndexSet") -> bool:
        """Structural equality: the same rows."""
        return self is other or bool(
            np.array_equal(self.indices, other.indices))

    # -- neighbor bookkeeping -----------------------------------------------------

    def neighbor_ordinals(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Ordinals of the -1/+1 neighbors along ``axis`` (1-based), -1 if absent.

        Built on each call; the arrays are read-only.  As gather indices into
        a (size + 1) vector whose last slot is zero, -1 reads that zero.  Only
        the down table is searched: j + e_axis is a member exactly when j is
        the down neighbor of a member, so the up table is its inverse.  On a
        one-level set the down key is the row's key minus (K+1)**(N - axis),
        which is the down ordinal itself when the keys are 0 .. size - 1 (a
        cube, or a lexicographic initial segment of one).
        """
        _check_axis(axis, self.dim)
        if len(self._levels) > 1:
            down = self.locate(self.indices
                               - np.eye(self.dim, dtype=np.int64)[axis - 1])
        else:
            keys = self._levels[0][2]
            down = keys - (self.bound + 1) ** (self.dim - axis)
            if keys[-1] != self.size - 1:
                # a smaller key never lands past its own row
                want, down = down, np.searchsorted(keys, down)
                down[keys[down] != want] = -1
            # below a zero digit the key borrows from the digits before it
            down[self.indices[:, axis - 1] == 0] = -1
        has = down >= 0
        up = np.full_like(down, -1)
        up[down[has]] = np.flatnonzero(has)
        down.setflags(write=False)
        up.setflags(write=False)
        return down, up


def _run_keys(prefix_rank, rows: np.ndarray, lo: int, hi: int,
              base: int) -> np.ndarray:
    """prefix_rank * base**(hi - lo) plus rows[:, lo:hi] read in ``base``."""
    weights = base ** np.arange(hi - lo - 1, -1, -1, dtype=np.int64)
    return prefix_rank * base ** (hi - lo) + rows[:, lo:hi] @ weights


def _check_dim_bound(dim: int, bound: int) -> None:
    if dim <= 0:
        raise ValueError(f"dimension must be positive, got {dim}")
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")


def _check_axis(axis: int, dim: int) -> None:
    if not 1 <= axis <= dim:
        raise ValueError(f"axis must satisfy 1 <= axis <= {dim}, got {axis}")


def check_size(count: int, what: str) -> None:
    """Refuse, before any allocation, to build more than MAX_ELEMENTS."""
    if count > MAX_ELEMENTS:
        raise ValueError(f"{count} {what} exceed the limit of {MAX_ELEMENTS}")


def build_full(dim: int, bound: int) -> IndexSet:
    """Full cube {k : 0 <= k_l <= bound}, size (bound+1)**dim."""
    _check_dim_bound(dim, bound)
    check_size((bound + 1) ** dim, "full-cube members")
    n = bound + 1
    cube = np.empty((n,) * dim + (dim,), dtype=np.int64)
    for a in range(dim):
        cube[..., a] = np.arange(n).reshape((n,) + (1,) * (dim - 1 - a))
    return IndexSet(cube.reshape(-1, dim))


def build_hyperbolic(dim: int, bound: int) -> IndexSet:
    """Hyperbolic cross {k : prod_l (1 + k_l) <= bound + 1}."""
    _check_dim_bound(dim, bound)
    # Extend canonically ordered prefixes axis by axis: a prefix with room r
    # (bound + 1 over its factors 1 + k_l) takes k < r next, leaving r//(k+1).
    rows = np.zeros((1, 0), dtype=np.int64)
    room = np.array([bound + 1], dtype=np.int64)
    for _ in range(dim):
        check_size(int(room.sum()), "hyperbolic-cross rows")
        parent = np.repeat(np.arange(room.size), room)
        k = np.arange(parent.size) - (np.cumsum(room) - room)[parent]
        rows = np.column_stack([rows[parent], k])
        room = room[parent] // (k + 1)
    return IndexSet(rows)


def from_indices(indices: Iterable[Sequence[int]]) -> IndexSet:
    """Build a validated index set from an explicit list of multi-indices.

    The list must be nonempty, componentwise nonnegative and downward closed.
    Indices are sorted into canonical order; the bound is the largest
    component present.
    """
    rows = list(indices)
    if not rows:
        raise ValueError("index set must contain at least one index")
    dim = len(rows[0])
    ragged = np.fromiter(map(len, rows), np.int64, len(rows)) != dim
    if ragged.any():
        raise ValueError(f"index {tuple(rows[np.argmax(ragged)])} does not "
                         f"have dimension {dim}")
    arr = np.asarray(rows, dtype=np.int64).reshape(len(rows), dim)
    negative = (arr < 0).any(axis=1)
    if negative.any():
        raise ValueError(f"index {tuple(arr[np.argmax(negative)].tolist())} "
                         "has a negative component")
    arr = arr[np.lexsort(arr.T[::-1])]      # np.unique imports numpy.ma
    iset = IndexSet(arr[np.append(True, (arr[1:] != arr[:-1]).any(axis=1))])
    arr = iset.indices
    missing = (arr > 0) & np.column_stack(
        [iset.neighbor_ordinals(a)[0] < 0 for a in range(1, dim + 1)])
    if missing.any():
        i, a = np.argwhere(missing)[0]
        raise ValueError(
            f"set is not downward closed: {tuple(arr[i].tolist())} present "
            f"but {tuple((arr[i] - np.eye(dim, dtype=np.int64)[a]).tolist())}"
            " missing")
    return iset


# -- coefficient vectors --------------------------------------------------------


@dataclass
class CoeffVector:
    """Dense coefficient vector over an index set, in canonical ordering."""

    iset: IndexSet
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype not in (np.float64, np.complex128):
            data = data.astype(np.complex128 if np.iscomplexobj(data)
                               else np.float64)
        if data.shape != (self.iset.size,):
            raise ValueError(f"data has shape {data.shape}, expected "
                             f"({self.iset.size},)")
        if not np.all(np.isfinite(data)):
            raise ValueError("coefficient vector contains non-finite entries")
        self.data = data


def _check_cube(subset: IndexSet, full: IndexSet) -> None:
    """restrict/extend map between a set and the full cube of its dim/bound."""
    if full.size != (full.bound + 1) ** full.dim:
        raise ValueError("target of restrict/extend must be a full cube")
    if subset.dim != full.dim or subset.bound != full.bound:
        raise ValueError(
            f"set mismatch: subset has (dim, bound) = ({subset.dim}, "
            f"{subset.bound}), full cube has ({full.dim}, {full.bound})")


def restrict(v: CoeffVector, subset: IndexSet) -> CoeffVector:
    """Drop the components of a full-cube vector that fall outside ``subset``."""
    _check_cube(subset, v.iset)
    return CoeffVector(subset, v.data[v.iset.locate(subset.indices)])


def extend(v: CoeffVector, full: IndexSet) -> CoeffVector:
    """Zero-pad a vector on a subset onto the full cube of equal dim/bound."""
    _check_cube(v.iset, full)
    out = np.zeros(full.size, dtype=v.data.dtype)
    out[full.locate(v.iset.indices)] = v.data
    return CoeffVector(full, out)
