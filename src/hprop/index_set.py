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
densely in that ordering; the ordinal of an index is recovered by a binary
search over the set's row keys (:meth:`IndexSet.locate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Largest full cube or interpolation grid built; what the tests and the
# benchmark build (81**3 cubes, 9**6 grids) stays far below it.
MAX_ELEMENTS = 1 << 24


class IndexSet:
    """An immutable, canonically ordered collection of multi-indices.

    Instances should be built through :func:`build_full`,
    :func:`build_hyperbolic` or :func:`from_indices`.  The ``indices`` array
    has shape (size, dim), is sorted lexicographically and is read-only;
    ``dim`` and ``bound`` are read off it.
    """

    __slots__ = ("dim", "bound", "indices", "_keys", "_derived",
                 "__weakref__")

    def __init__(self, indices: np.ndarray):
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[1] == 0:
            raise ValueError("indices must have shape (size, dim > 0)")
        if indices.shape[0] == 0 or indices.min() < 0:
            raise ValueError("an index set needs at least one index and "
                             "nonnegative components")
        # locate() searches the keys, so the rows must ascend strictly
        step = np.diff(indices, axis=0)
        if np.any(step[np.arange(len(step)), np.argmax(step != 0, 1)] <= 0):
            raise ValueError("indices must be distinct and in canonical "
                             "(lexicographic) order")
        indices.setflags(write=False)
        self.dim = indices.shape[1]
        self.bound = int(indices.max())
        self.indices = indices
        self._keys = _row_keys(indices)
        # neighbor tables per axis, built on first use
        self._derived: dict = {}

    # -- basic container protocol -------------------------------------------------

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(tuple, self.indices.tolist())

    def __contains__(self, index) -> bool:
        return bool(self.locate(index) >= 0)

    def __repr__(self) -> str:
        return f"IndexSet(dim={self.dim}, bound={self.bound}, size={self.size})"

    def locate(self, rows) -> np.ndarray:
        """Ordinals of ``rows`` (shape (..., dim)), -1 where a row is absent."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[-1:] != (self.dim,):
            raise ValueError(f"rows must have trailing dimension {self.dim}, "
                             f"got shape {rows.shape}")
        keys = _row_keys(rows)
        pos = np.minimum(np.searchsorted(self._keys, keys), self.size - 1)
        return np.where(self._keys[pos] == keys, pos, -1)

    def same_as(self, other: "IndexSet") -> bool:
        """Structural equality: the same rows."""
        return self is other or bool(
            np.array_equal(self.indices, other.indices))

    # -- neighbor bookkeeping -----------------------------------------------------

    def neighbor_ordinals(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Ordinals of the -1/+1 neighbors along ``axis`` (1-based), -1 if absent.

        Cached per axis; the arrays are read-only.  As gather indices into a
        (size + 1) vector whose last slot is zero, -1 reads that zero.  Only
        the down table is searched: j + e_axis is a member exactly when j is
        the down neighbor of a member, so the up table is its inverse.
        """
        _check_axis(axis, self.dim)
        cached = self._derived.get(axis)
        if cached is not None:
            return cached
        down = self.locate(self.indices
                           - np.eye(self.dim, dtype=np.int64)[axis - 1])
        has = down >= 0
        up = np.full_like(down, -1)
        up[down[has]] = np.flatnonzero(has)
        down.setflags(write=False)
        up.setflags(write=False)
        self._derived[axis] = (down, up)
        return down, up


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row's big-endian int64 words as one opaque key; for nonnegative
    rows the keys' byte order is the canonical order at any dim and bound."""
    words = np.ascontiguousarray(rows, dtype=">i8")
    return words.view(np.dtype((np.void, 8 * words.shape[-1])))[..., 0]


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
    cube = np.indices((bound + 1,) * dim, dtype=np.int64)
    return IndexSet(cube.reshape(dim, -1).T)


def build_hyperbolic(dim: int, bound: int) -> IndexSet:
    """Hyperbolic cross {k : prod_l (1 + k_l) <= bound + 1}."""
    _check_dim_bound(dim, bound)
    # Extend canonically ordered prefixes axis by axis: a prefix with room r
    # (bound + 1 over its factors 1 + k_l) takes k < r next, leaving r//(k+1).
    rows = np.zeros((1, 0), dtype=np.int64)
    room = np.array([bound + 1], dtype=np.int64)
    for _ in range(dim):
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
    iset = IndexSet(np.unique(arr, axis=0))
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

    @property
    def size(self) -> int:
        return self.data.shape[0]


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
