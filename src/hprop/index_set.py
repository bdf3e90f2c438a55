"""Multi-index sets for tensor-product spectral bases.

An index set collects multi-indices k = (k_1, ..., k_N) of nonnegative basis
orders, one per coordinate direction.  Two built-in families are provided:

* the full cube  {k : 0 <= k_l <= K for all l}  of size (K+1)^N, and
* the hyperbolic cross  {k : prod_l (1 + k_l) <= K + 1},  which grows only
  like K log(K)^(N-1) and is the set the fast potential application targets.

Both are downward closed: removing one from any positive component never
leaves the set.  Arbitrary downward-closed sets are accepted through
:func:`from_indices`.

Each set fixes a canonical ordering of its members, lexicographic in
(k_1, ..., k_N).  Coefficient vectors (:class:`CoeffVector`) are stored
densely in that ordering; the ordinal of an index is recovered by a binary
search over the set's row keys (:meth:`IndexSet.locate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

FULL = "full"
HYPERBOLIC = "hyperbolic"
CUSTOM = "custom"

_KINDS = (FULL, HYPERBOLIC, CUSTOM)

# Largest full cube or interpolation grid built; what the tests and the
# benchmark build (81**3 cubes, 9**6 grids) stays far below it.
MAX_ELEMENTS = 1 << 24


class IndexSet:
    """An immutable, canonically ordered collection of multi-indices.

    Instances should be built through :func:`build_full`,
    :func:`build_hyperbolic` or :func:`from_indices`.  The ``indices`` array
    has shape (size, dim), is sorted lexicographically and is read-only.
    """

    __slots__ = ("dim", "bound", "kind", "indices", "_keys", "_derived",
                 "__weakref__")

    def __init__(self, dim: int, bound: int, kind: str, indices: np.ndarray):
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        if bound < 0:
            raise ValueError(f"bound must be nonnegative, got {bound}")
        if kind not in _KINDS:
            raise ValueError(f"unknown index-set kind {kind!r}")
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[1] != dim:
            raise ValueError("indices must have shape (size, dim)")
        if indices.shape[0] == 0 or indices.min() < 0:
            raise ValueError("an index set needs at least one index and "
                             "nonnegative components")
        # locate() searches the keys, so the rows must ascend strictly
        step = np.diff(indices, axis=0)
        if np.any(step[np.arange(len(step)), np.argmax(step != 0, 1)] <= 0):
            raise ValueError("indices must be distinct and in canonical "
                             "(lexicographic) order")
        indices.setflags(write=False)
        self.dim = dim
        self.bound = bound
        self.kind = kind
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
        return (f"IndexSet(dim={self.dim}, bound={self.bound}, "
                f"kind={self.kind!r}, size={self.size})")

    def locate(self, rows) -> np.ndarray:
        """Ordinals of ``rows`` (shape (..., dim)), -1 where a row is absent."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[-1:] != (self.dim,):
            raise ValueError(f"rows must have trailing dimension {self.dim}, "
                             f"got shape {rows.shape}")
        keys = _row_keys(rows)
        pos = np.minimum(np.searchsorted(self._keys, keys), self.size - 1)
        return np.where(self._keys[pos] == keys, pos, -1)

    def position(self, index) -> int:
        """Ordinal of ``index`` in the canonical ordering (KeyError if absent)."""
        ordinal = int(self.locate(index))
        if ordinal < 0:
            raise KeyError(tuple(index))
        return ordinal

    def index_at(self, ordinal: int) -> tuple[int, ...]:
        return tuple(self.indices[ordinal].tolist())

    def same_as(self, other: "IndexSet") -> bool:
        """Structural equality: same dim, bound, kind and member list."""
        if self is other:
            return True
        return (self.dim == other.dim and self.bound == other.bound
                and self.kind == other.kind
                and self.indices.shape == other.indices.shape
                and bool(np.array_equal(self.indices, other.indices)))

    # -- neighbor bookkeeping -----------------------------------------------------

    def neighbor_ordinals(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Ordinals of the -1/+1 neighbors along ``axis`` (1-based), -1 if absent.

        Cached per axis; the arrays are read-only.  As gather indices into a
        (size + 1) vector whose last slot is zero, -1 reads that zero.
        """
        _check_axis(axis, self.dim)
        cached = self._derived.get(axis)
        if cached is not None:
            return cached
        shifted = self.indices.copy()
        shifted[:, axis - 1] -= 1
        down = self.locate(shifted)
        shifted[:, axis - 1] += 2
        up = self.locate(shifted)
        down.setflags(write=False)
        up.setflags(write=False)
        self._derived[axis] = (down, up)
        return down, up


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row's big-endian int64 words as one opaque key; for nonnegative
    rows the keys' byte order is the canonical order at any dim and bound."""
    words = np.ascontiguousarray(rows, dtype=">i8")
    return words.view(np.dtype((np.void, 8 * words.shape[-1])))[..., 0]


def _check_axis(axis: int, dim: int) -> None:
    if not 1 <= axis <= dim:
        raise ValueError(f"axis must satisfy 1 <= axis <= {dim}, got {axis}")


def check_size(count: int, what: str) -> None:
    """Refuse, before any allocation, to build more than MAX_ELEMENTS."""
    if count > MAX_ELEMENTS:
        raise ValueError(f"{count} {what} exceed the limit of {MAX_ELEMENTS}")


def build_full(dim: int, bound: int) -> IndexSet:
    """Full cube {k : 0 <= k_l <= bound}, size (bound+1)**dim."""
    if dim <= 0:
        raise ValueError(f"dimension must be positive, got {dim}")
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    check_size((bound + 1) ** dim, "full-cube members")
    ranges = [np.arange(bound + 1, dtype=np.int64)] * dim
    grids = np.meshgrid(*ranges, indexing="ij")
    indices = np.stack([g.reshape(-1) for g in grids], axis=1)
    return IndexSet(dim, bound, FULL, indices)


def build_hyperbolic(dim: int, bound: int) -> IndexSet:
    """Hyperbolic cross {k : prod_l (1 + k_l) <= bound + 1}."""
    if dim <= 0:
        raise ValueError(f"dimension must be positive, got {dim}")
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    budget = bound + 1
    out: list[list[int]] = []
    head = [0] * dim

    def descend(level: int, remaining: int) -> None:
        if level == dim - 1:
            for k in range(remaining):
                head[level] = k
                out.append(head.copy())
            return
        k = 0
        while k + 1 <= remaining:
            head[level] = k
            descend(level + 1, remaining // (k + 1))
            k += 1

    descend(0, budget)
    indices = np.asarray(out, dtype=np.int64).reshape(len(out), dim)
    return IndexSet(dim, bound, HYPERBOLIC, indices)


def from_indices(indices: Iterable[Sequence[int]], dim: int | None = None,
                 kind: str = CUSTOM) -> IndexSet:
    """Build a validated index set from an explicit list of multi-indices.

    The list must be nonempty, componentwise nonnegative and downward closed.
    Indices are sorted into canonical order; the bound is the largest
    component present.
    """
    rows = [tuple(int(c) for c in row) for row in indices]
    if not rows:
        raise ValueError("index set must contain at least one index")
    if dim is None:
        dim = len(rows[0])
    for row in rows:
        if len(row) != dim:
            raise ValueError(f"index {row} does not have dimension {dim}")
        if any(c < 0 for c in row):
            raise ValueError(f"index {row} has a negative component")
    arr = np.unique(np.asarray(rows, dtype=np.int64), axis=0)
    iset = IndexSet(dim, int(arr.max()), kind, arr)
    below = arr[:, None, :] - np.eye(dim, dtype=np.int64)
    missing = (arr > 0) & (iset.locate(below) < 0)
    if missing.any():
        i, a = np.argwhere(missing)[0]
        raise ValueError(
            f"set is not downward closed: {tuple(arr[i].tolist())} present "
            f"but {tuple(below[i, a].tolist())} missing")
    return iset


def neighbor(iset: IndexSet, index, axis: int, delta: int) -> int | None:
    """Ordinal of index +- e_axis, or None when the neighbor is absent.

    Absence (outside the cube, or pruned by a reduced set) is an ordinary
    result, never an error; ``axis`` is 1-based, ``delta`` is +1 or -1.
    """
    _check_axis(axis, iset.dim)
    if delta not in (-1, 1):
        raise ValueError(f"delta must be +1 or -1, got {delta}")
    table = iset.neighbor_ordinals(axis)[(delta + 1) // 2]
    ordinal = int(table[iset.position(index)])
    return None if ordinal < 0 else ordinal


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def copy(self) -> "CoeffVector":
        return CoeffVector(self.iset, self.data.copy())

    def write_csv(self, path) -> None:
        iset = self.iset
        cols = [f"k_{l + 1}" for l in range(iset.dim)] + ["re", "im"]
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for row, val in zip(iset.indices.tolist(), self.data):
                c = complex(val)
                fh.write(",".join(str(k) for k in row)
                         + f",{c.real:.17g},{c.imag:.17g}\n")


def read_coeff_csv(path, iset: IndexSet) -> CoeffVector:
    """Read a vector written by :meth:`CoeffVector.write_csv` back onto a set."""
    with open(path) as fh:
        if not fh.readline().startswith("k_1"):
            raise ValueError("malformed coefficient CSV header")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    rows = table[:, :iset.dim].astype(np.int64)
    pos = iset.locate(rows)
    if np.any(pos < 0):
        raise KeyError(f"index {tuple(rows[np.argmin(pos)].tolist())} "
                       "not in set")
    if len(pos) != iset.size:
        raise ValueError(f"CSV holds {len(pos)} rows, set has {iset.size}")
    data = np.zeros(iset.size, dtype=np.complex128)
    data[pos] = table[:, -2] + 1j * table[:, -1]
    return CoeffVector(iset, data)


def _check_cube(subset: IndexSet, full: IndexSet) -> None:
    """restrict/extend map between a set and the full cube of its dim/bound."""
    if full.kind != FULL:
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


# -- plain-text serialization ---------------------------------------------------


def save_index_set(iset: IndexSet, path) -> None:
    """Write ``dim bound kind size`` then one index per line."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{iset.dim} {iset.bound} {iset.kind} {iset.size}\n")
        for row in iset.indices.tolist():
            fh.write(" ".join(str(c) for c in row) + "\n")


def load_index_set(path) -> IndexSet:
    text = Path(path).read_text().split("\n")
    head = text[0].split()
    if len(head) != 4:
        raise ValueError("malformed index-set header")
    dim, bound, kind, size = int(head[0]), int(head[1]), head[2], int(head[3])
    rows = [tuple(int(c) for c in line.split())
            for line in text[1:] if line.strip()]
    if len(rows) != size:
        raise ValueError(f"header promises {size} indices, file has {len(rows)}")
    out = from_indices(rows, dim=dim, kind=kind)
    if out.bound > bound:
        raise ValueError("stored indices exceed the recorded bound")
    # full/hyperbolic sets may have bound larger than max component only for
    # degenerate cases; trust the header, it is part of the set's identity
    return IndexSet(dim, bound, kind, out.indices)
