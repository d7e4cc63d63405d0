import numpy as np

from graphbench import kernels
from graphbench.adjacency import SparseAdjacency
from graphbench.generators import SbmParams, sbm_generate


def random_graph(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(rng.integers(3, 8, size=3))
    return sbm_generate(SbmParams(0.6, 0.3, sizes), seed)


def scatter_oracle(rows, idx, n_out):
    out = np.zeros((n_out, rows.shape[1]))
    for k in range(len(idx)):
        out[idx[k]] += rows[k]
    return out


def test_scatter_rows_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for seed in range(10):
        rows = rng.normal(size=(12, 3))
        idx = rng.integers(0, 5, size=12)
        got = kernels.scatter_rows(rows, idx, 5)
        assert np.array_equal(got, scatter_oracle(rows, idx, 5))


def test_neighbor_sum_matches_dense():
    rng = np.random.default_rng(2)
    for seed in range(10):
        g = random_graph(seed)
        h = rng.normal(size=(g.n_nodes, 4))
        dense = g.adjacency.to_dense() @ h
        got = kernels.neighbor_sum(h, g.adjacency.src, g.adjacency.dst, g.n_nodes)
        assert np.allclose(got, dense, atol=1e-12)


def test_gated_neighbor_sum_matches_loop():
    rng = np.random.default_rng(3)
    for seed in range(10):
        g = random_graph(seed)
        adj = g.adjacency
        h = rng.normal(size=(g.n_nodes, 4))
        gates = rng.uniform(size=(adj.n_edges, 4))
        expect = np.zeros_like(h)
        for e in range(adj.n_edges):
            expect[adj.dst[e]] += gates[e] * h[adj.src[e]]
        got = kernels.gated_neighbor_sum(h, gates, adj.src, adj.dst, g.n_nodes)
        assert np.array_equal(got, expect)


def test_empty_edge_set():
    h = np.ones((4, 2))
    empty = np.zeros(0, dtype=np.int64)
    out = kernels.neighbor_sum(h, empty, empty, 4)
    assert np.array_equal(out, np.zeros((4, 2)))


def test_adjacency_canonical_edge_order():
    # kernels rely on dst-major ordering for reproducible accumulation
    pairs = np.array([[2, 0], [1, 2], [0, 1]])
    adj = SparseAdjacency.from_undirected(3, pairs)
    assert list(adj.dst) == sorted(adj.dst)
