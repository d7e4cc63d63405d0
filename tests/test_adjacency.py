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
    with pytest.raises(GraphStructureError):
        SparseAdjacency.from_undirected(3, np.array([[0, 1], [1, 0]]))
    with pytest.raises(GraphStructureError):
        SparseAdjacency.from_undirected(3, np.array([[0, 1], [0, 1]]))


def test_out_of_range_rejected():
    with pytest.raises(GraphStructureError):
        SparseAdjacency.from_undirected(3, np.array([[0, 3]]))
    with pytest.raises(GraphStructureError):
        SparseAdjacency(3, np.array([-1]), np.array([0]))


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
