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
from hprop import index_set

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
    assert (sorted(map(tuple, iset.indices.tolist()))
            == brute_force_hyperbolic(dim, bound))


@pytest.mark.parametrize("dim, bound", [(6, 80), (8, 60), (20, 8)])
def test_hyperbolic_rows_match_recursive_descent(dim, bound):
    # beyond brute force: the cubes would have 81**6 to 9**20 members
    rows = build_hyperbolic(dim, bound).indices
    assert rows.dtype == np.int64
    assert np.array_equal(rows, recursive_hyperbolic(dim, bound))


def test_hyperbolic_sizes_dim2():
    for bound, size in KNOWN_SIZES_2D.items():
        assert build_hyperbolic(2, bound).size == size


def test_hyperbolic_cross_is_size_checked_level_by_level(monkeypatch):
    # a 1-D cross is the (K+1)-cube build_full refuses; the 2-D K = 400
    # cross holds 2470 rows, which its second level must refuse to repeat
    monkeypatch.setattr(index_set, "MAX_ELEMENTS", 1000)
    assert build_hyperbolic(1, 999).size == 1000
    for dim, bound, rows in [(1, 1000, 1001), (2, 400, 2470)]:
        with pytest.raises(ValueError, match=f"^{rows} hyperbolic-cross rows "
                                             "exceed the limit of 1000"):
            build_hyperbolic(dim, bound)


@given(st.integers(1, 3), st.integers(0, 10))
def test_hyperbolic_downward_closed(dim, bound):
    iset = build_hyperbolic(dim, bound)
    members = set(map(tuple, iset.indices.tolist()))
    for row in members:
        for a in range(dim):
            if row[a] > 0:
                below = row[:a] + (row[a] - 1,) + row[a + 1:]
                assert below in members


def test_position_roundtrip():
    iset = build_hyperbolic(3, 8)
    assert iset.locate(iset.indices).tolist() == list(range(iset.size))
    for ordinal, row in enumerate(iset.indices.tolist()):
        assert int(iset.locate(row)) == ordinal


def test_contains_and_position_reject_absent():
    iset = build_hyperbolic(2, 10)
    # (2, 2) has product 9 <= 11, (4, 3) product 20 > 11; rows with
    # negative components are absent, not errors
    got = iset.locate([[2, 2], [4, 3], [-1, 0]])
    assert got.tolist() == [int(iset.locate((2, 2))), -1, -1]
    assert int(iset.locate((2, 2))) >= 0
    with pytest.raises(ValueError, match="trailing dimension"):
        iset.locate((2, 2, 0))


@pytest.mark.parametrize("iset", [
    build_full(3, 20),
    # 41**12 and 11**20 exceed 2**62: these keys take two levels
    build_hyperbolic(12, 40),
    build_hyperbolic(20, 10),
    # not downward closed
    IndexSet(np.array([[0, 2], [1, 1], [3, 0], [3, 1], [7, 0]])),
], ids=["cube3d-K20", "cross12d-K40", "cross20d-K10", "not-closed"])
def test_locate_matches_a_dict_of_rows(iset, rng):
    pos = {row: i for i, row in enumerate(map(tuple, iset.indices.tolist()))}
    picks = iset.indices[rng.integers(0, iset.size, 400)]
    queries = [picks, picks + rng.integers(-1, 2, picks.shape)]
    # in the cube, (0, 1, -1) and (0, 0, 21) would read as the digits of
    # members; 2**40 wraps a key in the 12-D and 20-D sets
    for bad in (-1, iset.bound + 1, 2 ** 40):
        q = picks.copy()
        q[np.arange(len(q)), rng.integers(0, iset.dim, len(q))] = bad
        queries.append(q)
    for q in queries:
        expected = [pos.get(row, -1) for row in map(tuple, q.tolist())]
        assert iset.locate(q).tolist() == expected
    assert iset.locate(picks[:12].reshape(3, 4, iset.dim)).shape == (3, 4)


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
        # 9**20 > 2**62: its int64 keys take two levels
        build_hyperbolic(20, 8),
        build_hyperbolic(6, 80),
        build_hyperbolic(12, 40),
        # not downward closed: up tables still hold for arbitrary rows
        IndexSet(np.array([[0, 2], [1, 1], [3, 0], [3, 1]])),
        # keys 0 .. 49, read as ordinals, yet not a cube
        IndexSet(build_full(3, 4).indices[:50]),
        build_full(3, 12),
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
    # two rows of a two-level set that differ only in the last axis, beyond
    # the first run of axes, swapped
    rows = build_hyperbolic(12, 40).indices.copy()
    i = np.flatnonzero(np.diff(rows[:, -1]) > 0)[5]
    assert np.array_equal(rows[i, :-1], rows[i + 1, :-1])
    rows[[i, i + 1]] = rows[[i + 1, i]]
    with pytest.raises(ValueError, match="canonical"):
        IndexSet(rows)


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
    # 3 rows times 2**62 + 1 digit values would overflow an int64 key
    with pytest.raises(ValueError, match="int64"):
        from_indices([(0, 0), (1, 0), (1, 2 ** 62)])


def test_restrict_extend_roundtrip(rng):
    full = build_full(2, 9)
    sub = build_hyperbolic(2, 9)
    v = CoeffVector(sub, rng.standard_normal(sub.size))
    ext = extend(v, full)
    assert ext.data.size == full.size
    back = restrict(ext, sub)
    assert np.array_equal(back.data, v.data)
    # members absent from the subset stay zero after extension
    sub_members = set(map(tuple, sub.indices.tolist()))
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
