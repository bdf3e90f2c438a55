import numpy as np
import pytest
from hypothesis import given, strategies as st

from hprop import (
    CoeffVector,
    IndexSet,
    build_full,
    build_hyperbolic,
    extend,
    from_indices,
    restrict,
)

# sizes of the product-weighted sets, dim 2, worked out by brute force once
KNOWN_SIZES_2D = {10: 29, 20: 70, 30: 113, 40: 160, 60: 263, 80: 373, 160: 846}


def brute_force_hyperbolic(dim, bound):
    full = build_full(dim, bound)
    keep = [tuple(row) for row in full.indices.tolist()
            if np.prod([k + 1 for k in row]) <= bound + 1]
    return keep


def recursive_hyperbolic(dim, bound):
    """Rows of the cross by depth-first descent, one Python call per prefix."""
    out, head = [], [0] * dim

    def descend(level, remaining):
        for k in range(remaining):
            head[level] = k
            if level == dim - 1:
                out.append(head.copy())
            else:
                descend(level + 1, remaining // (k + 1))

    descend(0, bound + 1)
    return np.asarray(out, dtype=np.int64)


def test_full_cube_size_and_order():
    iset = build_full(2, 3)
    assert iset.size == 16
    # lexicographic: second component varies fastest
    assert iset.indices[[0, 1, -1]].tolist() == [[0, 0], [0, 1], [3, 3]]


@given(st.integers(1, 4), st.integers(0, 6))
def test_full_cube_size_formula(dim, bound):
    assert build_full(dim, bound).size == (bound + 1) ** dim


@given(st.integers(1, 4), st.integers(0, 12))
def test_hyperbolic_membership_rule(dim, bound):
    iset = build_hyperbolic(dim, bound)
    prods = np.prod(iset.indices + 1, axis=1)
    assert np.all(prods <= bound + 1)
    assert sorted(iset) == brute_force_hyperbolic(dim, bound)


@pytest.mark.parametrize("dim, bound", [(6, 80), (8, 60), (20, 8)])
def test_hyperbolic_rows_match_recursive_descent(dim, bound):
    # beyond brute force: the cubes would have 81**6 to 9**20 members
    rows = build_hyperbolic(dim, bound).indices
    assert rows.dtype == np.int64
    assert np.array_equal(rows, recursive_hyperbolic(dim, bound))


def test_hyperbolic_sizes_dim2():
    for bound, size in KNOWN_SIZES_2D.items():
        assert build_hyperbolic(2, bound).size == size


@given(st.integers(1, 3), st.integers(0, 10))
def test_hyperbolic_downward_closed(dim, bound):
    iset = build_hyperbolic(dim, bound)
    members = set(iset)
    for row in members:
        for a in range(dim):
            if row[a] > 0:
                below = row[:a] + (row[a] - 1,) + row[a + 1:]
                assert below in members


def test_position_roundtrip():
    iset = build_hyperbolic(3, 8)
    assert iset.locate(iset.indices).tolist() == list(range(iset.size))
    for ordinal, row in enumerate(iset):
        assert int(iset.locate(row)) == ordinal


def test_contains_and_position_reject_absent():
    iset = build_hyperbolic(2, 10)
    assert (2, 2) in iset          # product 9 <= 11
    assert (4, 3) not in iset      # product 20 > 11
    # batched lookup; rows with negative components are absent, not errors
    got = iset.locate([[2, 2], [4, 3], [-1, 0]])
    assert got.tolist() == [int(iset.locate((2, 2))), -1, -1]
    assert int(iset.locate((2, 2))) >= 0
    with pytest.raises(ValueError, match="trailing dimension"):
        iset.locate((2, 2, 0))


def test_neighbor_walks_and_pruning():
    iset = build_hyperbolic(2, 10)
    j = int(iset.locate((2, 2)))
    down, up = iset.neighbor_ordinals(1)
    assert down[j] == iset.locate((1, 2))
    # (3, 2) has product 12 > 11, pruned
    assert up[j] == -1
    assert down[iset.locate((0, 0))] == -1
    with pytest.raises(ValueError):
        iset.neighbor_ordinals(3)


def reference_neighbors(iset, axis):
    """Neighbor ordinals from a tuple dict, one row at a time."""
    pos = {tuple(row): i for i, row in enumerate(iset.indices.tolist())}
    down, up = [], []
    for row in iset.indices.tolist():
        for delta, out in ((-1, down), (1, up)):
            j = list(row)
            j[axis - 1] += delta
            out.append(pos.get(tuple(j), -1))
    return down, up


def test_neighbor_ordinals_match_scalar_walks():
    sets = [
        build_full(1, 7), build_full(2, 6), build_full(3, 4),
        build_hyperbolic(1, 9), build_hyperbolic(2, 12),
        build_hyperbolic(3, 15), build_hyperbolic(4, 10),
        from_indices([(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1),
                      (2, 0, 0), (0, 0, 2), (3, 0, 0)]),
        # 9**20 > 2**63: no mixed-radix int64 key could encode this set
        build_hyperbolic(20, 8),
        build_hyperbolic(6, 80),
        # not downward closed: up tables still hold for arbitrary rows
        IndexSet(np.array([[0, 2], [1, 1], [3, 0], [3, 1]])),
    ]
    for iset in sets:
        for axis in range(1, iset.dim + 1):
            down, up = iset.neighbor_ordinals(axis)
            ref_down, ref_up = reference_neighbors(iset, axis)
            assert down.tolist() == ref_down, (iset, axis)
            assert up.tolist() == ref_up, (iset, axis)


def test_index_set_rejects_unsorted_rows():
    with pytest.raises(ValueError, match="canonical"):
        IndexSet(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="canonical"):
        IndexSet(np.array([[0, 0], [1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="distinct"):
        IndexSet(np.array([[0, 0], [0, 1], [0, 1]]))
    with pytest.raises(ValueError, match="nonnegative"):
        IndexSet(np.array([[0, -1], [0, 0]]))


def test_index_set_reads_dim_and_bound_off_its_rows():
    iset = IndexSet(np.array([[0, 0, 0], [0, 0, 4], [2, 1, 0]]))
    assert (iset.dim, iset.bound, iset.size) == (3, 4, 3)
    assert repr(iset) == "IndexSet(dim=3, bound=4, size=3)"
    for rows in (np.zeros((2, 0), dtype=np.int64), np.zeros((0, 2)),
                 np.arange(3)):
        with pytest.raises(ValueError):
            IndexSet(rows)


def test_from_indices_validates_closure():
    from_indices([(0, 0), (0, 1), (1, 0)])
    with pytest.raises(ValueError, match="downward closed"):
        from_indices([(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="negative"):
        from_indices([(0, -1)])
    with pytest.raises(ValueError, match="at least one"):
        from_indices([])
    with pytest.raises(ValueError, match=r"\(1,\) does not have dimension 2"):
        from_indices([(0, 0), (1,)])


def test_restrict_extend_roundtrip(rng):
    full = build_full(2, 9)
    sub = build_hyperbolic(2, 9)
    v = CoeffVector(sub, rng.standard_normal(sub.size))
    ext = extend(v, full)
    assert ext.size == full.size
    back = restrict(ext, sub)
    assert np.array_equal(back.data, v.data)
    # members absent from the subset stay zero after extension
    sub_members = set(sub)
    for i, row in enumerate(full.indices.tolist()):
        if tuple(row) not in sub_members:
            assert ext.data[i] == 0.0


def test_restrict_extend_accept_any_cube_built_from_its_rows(rng):
    full = build_full(3, 4)
    shuffled = rng.permutation(full.indices)
    cube = from_indices(shuffled.tolist())
    assert cube.same_as(full)
    sub = build_hyperbolic(3, 4)
    v = CoeffVector(sub, rng.standard_normal(sub.size))
    w = CoeffVector(full, rng.standard_normal(full.size))
    assert np.array_equal(extend(v, cube).data, extend(v, full).data)
    assert np.array_equal(restrict(CoeffVector(cube, w.data), sub).data,
                          restrict(w, sub).data)


def test_restrict_requires_matching_cube(rng):
    sub = build_hyperbolic(2, 9)
    wrong = build_full(2, 10)
    v = CoeffVector(wrong, rng.standard_normal(wrong.size))
    with pytest.raises(ValueError, match="mismatch"):
        restrict(v, sub)
    # same dim and bound as a 2x2 cube but one row short: no cube at all
    short = from_indices([(0, 0), (0, 1), (1, 0)])
    line = from_indices([(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="full cube"):
        extend(CoeffVector(line, [1.0, 2.0]), short)
    with pytest.raises(ValueError, match="full cube"):
        restrict(CoeffVector(short, [1.0, 2.0, 3.0]), line)


def test_coeff_vector_rejects_bad_data():
    iset = build_full(1, 3)
    with pytest.raises(ValueError, match="shape"):
        CoeffVector(iset, np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        CoeffVector(iset, np.array([0.0, np.nan, 0.0, 0.0]))
