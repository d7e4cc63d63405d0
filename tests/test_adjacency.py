import numpy as np
import pytest

from graphbench.adjacency import SparseAdjacency
from graphbench.errors import GraphStructureError


def test_from_undirected_stores_both_directions():
    adj = SparseAdjacency.from_undirected(3, np.array([[0, 1], [1, 2]]))
    assert adj.n_edges == 4
    dense = adj.to_dense()
    assert np.array_equal(dense, dense.T)
    assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0


def test_self_loops_rejected():
    with pytest.raises(GraphStructureError):
        SparseAdjacency.from_undirected(3, np.array([[1, 1]]))


def test_duplicate_pairs_rejected():
    with pytest.raises(GraphStructureError, match="duplicate undirected edge"):
        SparseAdjacency.from_undirected(3, np.array([[0, 1], [1, 0]]))
    with pytest.raises(GraphStructureError, match="duplicate undirected edge"):
        SparseAdjacency.from_undirected(3, np.array([[0, 1], [0, 1]]))


def test_duplicate_directed_edge_rejected():
    with pytest.raises(GraphStructureError, match="duplicate directed edge"):
        SparseAdjacency(3, [0, 0], [1, 1])
    with pytest.raises(GraphStructureError, match="duplicate directed edge"):
        SparseAdjacency(3, [2, 0, 1, 0], [0, 1, 0, 1])
    # opposite directions are two distinct directed edges
    assert SparseAdjacency(3, [0, 1], [1, 0]).n_edges == 2


def test_out_of_range_rejected():
    with pytest.raises(GraphStructureError, match="node index out of range"):
        SparseAdjacency.from_undirected(3, np.array([[0, 3]]))
    with pytest.raises(GraphStructureError, match="negative node index"):
        SparseAdjacency(3, np.array([-1]), np.array([0]))


def test_out_of_range_reported_before_duplicates():
    # with n_nodes = 3 the pair keys lo * 3 + hi of (0, 4) and (1, 1), or of
    # (0, 5) and (1, 2), collide; the range error must win
    with pytest.raises(GraphStructureError, match="node index out of range"):
        SparseAdjacency.from_undirected(3, np.array([[0, 5], [1, 2]]))
    with pytest.raises(GraphStructureError, match="node index out of range"):
        SparseAdjacency.from_undirected(3, np.array([[0, 3], [3, 0]]))
    with pytest.raises(GraphStructureError, match="node index out of range"):
        SparseAdjacency(3, [4, 1], [0, 1])
    with pytest.raises(GraphStructureError, match="negative node index"):
        SparseAdjacency(3, [2, -1], [0, 1])


def test_edges_sorted_dst_major():
    adj = SparseAdjacency.from_undirected(4, np.array([[2, 3], [0, 2], [0, 1]]))
    order = np.lexsort((adj.src, adj.dst))
    assert np.array_equal(order, np.arange(adj.n_edges))


def test_in_degree_and_neighbors():
    adj = SparseAdjacency.from_undirected(4, np.array([[0, 1], [0, 2], [0, 3]]))
    assert np.array_equal(adj.in_degree(), [3, 1, 1, 1])


def test_undirected_pairs_roundtrip():
    pairs = np.array([[0, 3], [1, 2], [0, 1]])
    adj = SparseAdjacency.from_undirected(4, pairs)
    got = adj.undirected_pairs()
    expect = np.array(sorted(map(tuple, pairs)))
    assert np.array_equal(got, expect)


def test_empty_graph():
    adj = SparseAdjacency.from_undirected(5, np.zeros((0, 2), dtype=np.int64))
    assert adj.n_edges == 0
    assert np.array_equal(adj.in_degree(), np.zeros(5, dtype=np.int64))
    assert adj.undirected_pairs().shape == (0, 2)


def test_offsets_partition_edges():
    rng = np.random.default_rng(5)
    pairs = set()
    while len(pairs) < 12:
        i, j = sorted(rng.integers(0, 8, size=2))
        if i != j:
            pairs.add((i, j))
    adj = SparseAdjacency.from_undirected(8, np.array(sorted(pairs)))
    assert adj.offsets[0] == 0 and adj.offsets[-1] == adj.n_edges
    for v in range(8):
        lo, hi = adj.offsets[v], adj.offsets[v + 1]
        assert np.all(adj.dst[lo:hi] == v)


def lexsort_adjacency(n_nodes, src, dst):
    """The edge storage of the two-key lexsort constructor that the
    single-key sort replaced: (src, dst, offsets), or None where it raised
    its duplicate error."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.lexsort((src, dst))
    src = src[order]
    dst = dst[order]
    if src.size > 1:
        same = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
        if same.any():
            return None
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n_nodes), out=offsets[1:])
    return src, dst, offsets


def lexsort_undirected_pairs(adj):
    keep = adj.src < adj.dst
    pairs = np.stack([adj.src[keep], adj.dst[keep]], axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def random_edge_sets(seed, count):
    """(n_nodes, src, dst, undirected) edge sets in random order: empty ones,
    n_nodes = 1, isolated nodes, dense ones, and directed ones that are
    asymmetric or carry self-loops."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 1 if k % 10 == 0 else int(rng.integers(2, 40))
        p = (0.0, 0.05, 0.3, 1.0)[k % 4] if k % 5 else rng.uniform()
        undirected = k % 2 == 0
        i, j = np.nonzero(rng.uniform(size=(n, n)) < p)
        keep = i < j if undirected else np.ones(i.size, dtype=bool)
        if not undirected and k % 3:
            keep = i != j
        i, j = i[keep], j[keep]
        flip = (rng.uniform(size=i.size) < 0.5) & undirected
        src, dst = np.where(flip, j, i), np.where(flip, i, j)
        order = rng.permutation(src.size)
        yield n, src[order], dst[order], undirected


def assert_same_array(got, expect):
    assert got.dtype == expect.dtype
    assert np.array_equal(got, expect)


def test_storage_bit_identical_to_lexsort_constructor():
    seen = {"empty": 0, "isolated": 0, "single": 0, "asymmetric": 0}
    for n, src, dst, undirected in random_edge_sets(11, 1200):
        if undirected:
            adj = SparseAdjacency.from_undirected(n, np.stack([src, dst], axis=1))
            expect = lexsort_adjacency(n, np.concatenate([src, dst]),
                                       np.concatenate([dst, src]))
            assert_same_array(adj.undirected_pairs(), lexsort_undirected_pairs(adj))
        else:
            adj = SparseAdjacency(n, src, dst)
            expect = lexsort_adjacency(n, src, dst)
            dense = adj.to_dense()
            seen["asymmetric"] += not np.array_equal(dense, dense.T)
        for got, want in zip((adj.src, adj.dst, adj.offsets), expect):
            assert_same_array(got, want)
        seen["empty"] += adj.n_edges == 0
        seen["isolated"] += bool((adj.in_degree() == 0).any()) and adj.n_edges > 0
        seen["single"] += n == 1
    assert min(seen.values()) >= 20, seen


def test_duplicates_rejected_exactly_where_lexsort_found_them():
    rng = np.random.default_rng(12)
    rejected = 0
    for _ in range(300):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(0, 12))
        src, dst = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        expect = lexsort_adjacency(n, src, dst)
        if expect is None:
            rejected += 1
            with pytest.raises(GraphStructureError, match="duplicate directed edge"):
                SparseAdjacency(n, src, dst)
        else:
            adj = SparseAdjacency(n, src, dst)
            for got, want in zip((adj.src, adj.dst, adj.offsets), expect):
                assert_same_array(got, want)
    assert 50 <= rejected <= 250
