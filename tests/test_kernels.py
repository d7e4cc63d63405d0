import numpy as np
import pytest

from graphbench import kernels
from graphbench.adjacency import SparseAdjacency
from graphbench.errors import ContractError
from graphbench.generators import SbmParams, sbm_generate

from dense_reference import to_dense


def random_graph(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(rng.integers(3, 8, size=3))
    return sbm_generate(SbmParams(0.6, 0.3, sizes), seed)


def random_directed(seed, n_nodes=40, n_edges=300):
    """A random directed graph in which nodes 0-3 only send and 4-7 only
    receive, so its reversed edges are not its edges."""
    rng = np.random.default_rng(seed)
    src, dst = np.divmod(np.arange(n_nodes * n_nodes), n_nodes)
    allowed = (src != dst) & ~np.isin(src, range(4, 8)) & ~np.isin(dst, range(4))
    pick = rng.choice(np.flatnonzero(allowed), size=n_edges, replace=False)
    return SparseAdjacency(n_nodes, src[pick], dst[pick])


def scatter_oracle(rows, idx, n_out):
    out = np.zeros((n_out, rows.shape[1]))
    for k in range(len(idx)):
        out[idx[k]] += rows[k]
    return out


def add_at(rows, idx, n_out):
    """The bit-identity reference: scatter-add in edge order."""
    out = np.zeros((n_out, rows.shape[1]))
    np.add.at(out, idx, rows)
    return out


def other_end(to):
    return "src" if to == "dst" else "dst"


def wide_range(rng, shape):
    # magnitudes spread over 16 decades, so a different summation order
    # would change the rounded sums
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


BIT_IDENTITY_GRAPHS = [random_graph(seed).adjacency for seed in range(10)] + [
    random_directed(seed) for seed in range(3)] + [
    SparseAdjacency(4, [], []),
    # node 4 has no edges, 0 and 3 only send, 2 only receives
    SparseAdjacency(5, [0, 0, 1, 3, 1], [1, 2, 2, 1, 0]),
]


@pytest.mark.parametrize("to", ["dst", "src"])
@pytest.mark.parametrize("graph_id", range(len(BIT_IDENTITY_GRAPHS)))
def test_all_directions_bit_identical_to_add_at(graph_id, to):
    adj = BIT_IDENTITY_GRAPHS[graph_id]
    rng = np.random.default_rng(100 + graph_id)
    n, n_edges = adj.n_nodes, adj.n_edges
    h = wide_range(rng, (n, 5))
    gates = wide_range(rng, (n_edges, 5))
    rows = wide_range(rng, (n_edges, 5))
    into, out_of = adj.endpoint(to), adj.endpoint(other_end(to))

    got = kernels.neighbor_sum(h, adj, to)
    assert isinstance(got, np.ndarray)
    assert np.array_equal(got, add_at(h[out_of], into, n))
    if to == "dst":
        # the gated kernel has one direction; its backward is spelled out
        # in tensor.gated_aggregate
        got = kernels.gated_neighbor_sum(h, gates, adj)
        assert np.array_equal(got, add_at(gates * h[out_of], into, n))
    got = kernels.scatter_rows(rows, adj, to)
    assert np.array_equal(got, add_at(rows, into, n))


def test_operators_built_once_and_match_dense():
    adj = random_graph(3).adjacency
    dense = to_dense(adj)
    for to, expect in (("dst", dense), ("src", dense.T)):
        op = adj.adjacency_matrix(to)
        assert adj.adjacency_matrix(to) is op
        assert op.has_sorted_indices
        assert np.array_equal(op.toarray(), expect)
    incidence = {}
    for to in ("dst", "src"):
        op = adj.incidence(to)
        assert adj.incidence(to) is op
        assert op.has_sorted_indices
        expect = np.zeros((adj.n_nodes, adj.n_edges))
        expect[adj.endpoint(to), np.arange(adj.n_edges)] = 1.0
        assert np.array_equal(op.toarray(), expect)
        incidence[to] = op.toarray()
    assert np.array_equal(incidence["dst"] @ incidence["src"].T, dense)


def test_unknown_endpoint_rejected():
    adj = random_graph(0).adjacency
    h = np.ones((adj.n_nodes, 2))
    with pytest.raises(ContractError):
        kernels.neighbor_sum(h, adj, "both")


def test_scatter_rows_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for seed in range(10):
        adj = random_graph(seed).adjacency
        rows = rng.normal(size=(adj.n_edges, 3))
        for to in ("dst", "src"):
            got = kernels.scatter_rows(rows, adj, to)
            assert np.array_equal(got, scatter_oracle(rows, adj.endpoint(to), adj.n_nodes))


def test_neighbor_sum_matches_dense():
    rng = np.random.default_rng(2)
    for seed in range(10):
        g = random_graph(seed)
        h = rng.normal(size=(g.n_nodes, 4))
        dense = to_dense(g.adjacency)
        assert np.allclose(kernels.neighbor_sum(h, g.adjacency, "dst"), dense @ h, atol=1e-12)
        assert np.allclose(kernels.neighbor_sum(h, g.adjacency, "src"), dense.T @ h,
                           atol=1e-12)


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
        got = kernels.gated_neighbor_sum(h, gates, adj)
        assert np.array_equal(got, expect)


def test_empty_edge_set():
    h = np.ones((4, 2))
    empty = SparseAdjacency(4, [], [])
    assert np.array_equal(kernels.gated_neighbor_sum(h, np.ones((0, 2)), empty),
                          np.zeros((4, 2)))
    for to in ("dst", "src"):
        assert np.array_equal(kernels.neighbor_sum(h, empty, to), np.zeros((4, 2)))
        assert np.array_equal(kernels.scatter_rows(np.ones((0, 2)), empty, to),
                              np.zeros((4, 2)))


def test_adjacency_canonical_edge_order():
    # kernels rely on dst-major ordering for reproducible accumulation
    pairs = np.array([[2, 0], [1, 2], [0, 1]])
    adj = SparseAdjacency.from_undirected(3, pairs)
    assert list(adj.dst) == sorted(adj.dst)
