import inspect
import weakref

import numpy as np
import pytest

from graphbench import tensor
from graphbench.adjacency import SparseAdjacency
from graphbench.errors import (
    ContractError,
    DegenerateBatchError,
    GraphStructureError,
    ShapeError,
)
from graphbench.generators import SbmParams, sbm_generate
from graphbench.gradcheck import op_checks
from graphbench.tensor import (
    Tape,
    Tensor,
    _result,
    add,
    backward,
    batch_norm,
    bias_add,
    gated_aggregate,
    gather_rows,
    hadamard,
    matmul,
    neighbor_sum,
    one_minus,
    relu,
    scatter_rows,
    sigmoid,
    softmax_cross_entropy,
    sum_all,
    tanh,
)


def line_graph(n):
    pairs = np.column_stack((np.arange(n - 1), np.arange(1, n)))
    return SparseAdjacency.from_undirected(n, pairs)


def test_matmul_values_and_grads():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = Tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
    with Tape() as tape:
        out = matmul(a, b)
        loss = sum_all(out)
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])
    backward(loss)
    # d(sum)/dA = ones @ B^T, d(sum)/dB = A^T @ ones
    assert np.array_equal(a.grad, np.ones((2, 2)) @ b.data.T)
    assert np.array_equal(b.grad, a.data.T @ np.ones((2, 2)))


def test_rules_skip_the_gradient_of_an_input_that_needs_none():
    rng = np.random.default_rng(3)
    x_data, c_data = rng.normal(size=(6, 3)), rng.normal(size=(6, 4))
    w_data, gamma_data = rng.normal(size=(3, 4)), rng.normal(size=4)

    def run(inputs_need_grad):
        x = Tensor(x_data, requires_grad=inputs_need_grad)
        c = Tensor(c_data, requires_grad=inputs_need_grad)
        params = [Tensor(w_data, requires_grad=True),
                  Tensor(gamma_data, requires_grad=True),
                  Tensor(np.zeros(4), requires_grad=True)]
        with Tape() as tape:
            loss = sum_all(hadamard(matmul(x, params[0]), batch_norm(c, *params[1:])))
        (_, _, matmul_rule), (_, _, norm_rule) = tape.ops[:2]
        g = np.ones((6, 4))
        skipped = (matmul_rule(g)[0] is None, norm_rule(g)[2] is None)
        backward(loss)
        return skipped, [p.grad for p in params]

    skipped, grads = run(False)
    kept, expect = run(True)
    assert skipped == (True, True) and kept == (False, False)
    for got, want in zip(grads, expect):
        assert np.array_equal(got, want)


def test_matmul_shape_error():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        matmul(a, b)


def test_elementwise_ops_values():
    a = Tensor([[1.0, -2.0]])
    b = Tensor([[0.5, 4.0]])
    assert np.array_equal(add(a, b).data, [[1.5, 2.0]])
    assert np.array_equal(hadamard(a, b).data, [[0.5, -8.0]])
    assert np.array_equal(one_minus(b).data, [[0.5, -3.0]])
    with pytest.raises(ShapeError):
        add(a, Tensor(np.ones((2, 2))))


def test_activations_fixed_points():
    x = Tensor([[0.0, 100.0, -100.0]])
    assert np.allclose(sigmoid(x).data, [[0.5, 1.0, 0.0]])
    assert np.allclose(tanh(x).data, [[0.0, 1.0, -1.0]])
    assert np.array_equal(relu(x).data, [[0.0, 100.0, 0.0]])


def test_relu_gradient_mask():
    x = Tensor([[-1.0, 2.0], [3.0, -4.0]], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(relu(x))
    backward(loss)
    assert np.array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_bias_add_broadcasts_rows():
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    b = Tensor([1.0, -1.0], requires_grad=True)
    with Tape() as tape:
        out = bias_add(x, b)
        loss = sum_all(out)
    assert np.array_equal(out.data, np.tile([1.0, -1.0], (3, 1)))
    backward(loss)
    assert np.array_equal(b.grad, [3.0, 3.0])
    assert np.array_equal(x.grad, np.ones((3, 2)))


def test_backward_requires_recorded_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    out = sum_all(x)  # no tape active
    with pytest.raises(ContractError):
        backward(out)
    with Tape():
        y = add(x, x)
    with pytest.raises(ContractError):
        backward(y)  # not a scalar


def test_no_tape_means_no_graph():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    out = sigmoid(x)
    assert out.requires_grad is False
    assert out._tape is None


def test_dropping_tape_frees_graph_without_gc():
    # the recorded graph must be acyclic so refcounting alone reclaims it;
    # long training loops rely on this to run in constant memory
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    with Tape() as tape:
        mid = sigmoid(x)
        loss = sum_all(mid)
    witness = weakref.ref(mid)
    del tape, mid, loss
    assert witness() is None


def test_dropped_intermediate_is_freed_inside_a_live_tape():
    # a tape entry keeps its output's key, not the output, and no rule
    # reads a gather_rows output; so once the caller drops it, it is freed
    # while the tape lives, and backward still routes its gradient
    adj = small_directed()
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=(4, 2)) for _ in range(3)]

    def leaf_grads(drop):
        h, neighbor, values = (Tensor(a, requires_grad=True) for a in arrays)
        with Tape() as tape:
            center = gather_rows(h, adj, "dst")
            witnesses = weakref.ref(center), weakref.ref(center.data)
            out = gated_aggregate(center, neighbor, values, adj)
            if drop:
                del center
                assert all(w() is None for w in witnesses)
            loss = sum_all(out)
        backward(loss)
        return h.grad, neighbor.grad, values.grad

    for kept, dropped in zip(leaf_grads(False), leaf_grads(True)):
        assert np.array_equal(kept, dropped)


def test_output_of_an_earlier_tape_is_a_leaf_of_a_later_one():
    # mid was recorded on the first tape; on the second it is a leaf, so it
    # gets .grad there and the gradient stops at it
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with Tape() as first:
        mid = sigmoid(x)
        first_loss = sum_all(mid)
    with Tape() as second:
        loss = sum_all(hadamard(mid, mid))
    backward(loss)
    assert np.array_equal(mid.grad, np.ones((2, 2)))  # 2 * sigmoid(0)
    assert x.grad is None
    backward(first_loss)
    assert np.array_equal(x.grad, np.full((2, 2), 0.25))
    assert np.array_equal(mid.grad, np.ones((2, 2)))


def test_backward_after_tape_dropped_raises():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape():
        loss = sum_all(x)
    # the unbound tape died with the block, taking the graph with it
    with pytest.raises(ContractError):
        backward(loss)


def test_consecutive_backward_doubles_leaf_grads():
    x = Tensor([[2.0, 3.0]], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(hadamard(x, x))
    backward(loss)
    first = x.grad.copy()
    backward(loss)
    assert np.array_equal(x.grad, 2.0 * first)


def test_shared_gradient_arrays_stay_correct():
    # add hands one gradient array to both inputs, and the first gradient
    # a tensor receives is kept without a copy, so the two leaves share an
    # array; accumulating into one must never change the other
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    b = Tensor(np.zeros((2, 3)), requires_grad=True)
    with Tape() as tape:
        mid = add(a, b)
        loss = sum_all(mid)
    backward(loss)
    backward(loss)
    assert np.array_equal(a.grad, 2.0 * np.ones((2, 3)))
    assert np.array_equal(b.grad, 2.0 * np.ones((2, 3)))


def test_second_gradient_never_written_into_the_first():
    # the outer add's backward hands mid and a one array; a's second
    # gradient must not be summed into it, or b would read 2
    a = Tensor(np.zeros((1, 2)), requires_grad=True)
    b = Tensor(np.zeros((1, 2)), requires_grad=True)
    with Tape() as tape:
        mid = add(a, b)
        loss = sum_all(add(mid, a))
    backward(loss)
    assert np.array_equal(a.grad, 2.0 * np.ones((1, 2)))
    assert np.array_equal(b.grad, np.ones((1, 2)))


def test_intermediate_tensors_receive_no_grads():
    # an op output's gradient is freed once its rule has run; only the
    # leaf keeps one
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        mid = hadamard(x, Tensor([[3.0, 3.0]]))
        loss = sum_all(mid)
    backward(loss)
    assert mid.grad is None and loss.grad is None
    assert np.array_equal(x.grad, 3.0 * np.ones((1, 2)))


def small_directed():
    # edges 1->0, 2->0, 0->3 (stored sorted by dst); node 0 receives twice
    return SparseAdjacency(4, [0, 1, 2], [3, 0, 0])


def test_gather_scatter_roundtrip_grads():
    adj = small_directed()
    x = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    with Tape() as tape:
        picked = gather_rows(x, adj, "dst")
        loss = sum_all(picked)
    assert np.array_equal(picked.data, x.data[[0, 0, 3]])
    backward(loss)
    # row 0 gathered twice, row 3 once, rows 1-2 never
    assert np.array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])


def test_scatter_rows_accumulates_duplicates():
    adj = small_directed()
    rows = Tensor([[1.0], [2.0], [4.0]], requires_grad=True)
    with Tape() as tape:
        out = scatter_rows(rows, adj, "dst")
        loss = sum_all(out)
    assert np.array_equal(out.data, [[3.0], [0.0], [0.0], [4.0]])
    by_src = scatter_rows(rows, adj, "src")
    assert np.array_equal(by_src.data, [[4.0], [1.0], [2.0], [0.0]])
    backward(loss)
    assert np.array_equal(rows.grad, np.ones((3, 1)))


def test_gather_rows_index_bounds():
    # indices are checked once, when the adjacency is built; each op then
    # checks only that the row count matches the graph
    with pytest.raises(GraphStructureError):
        SparseAdjacency(3, [0, 3], [1, 0])
    adj = line_graph(3)
    with pytest.raises(GraphStructureError):
        gather_rows(Tensor(np.ones((4, 2))), adj, "src")
    with pytest.raises(ShapeError):
        scatter_rows(Tensor(np.ones((adj.n_edges + 1, 2))), adj, "dst")
    with pytest.raises(ContractError):
        gather_rows(Tensor(np.ones((3, 2))), adj, "edge")


def test_neighbor_sum_line_graph():
    adj = line_graph(3)
    h = Tensor(np.array([[1.0], [10.0], [100.0]]), requires_grad=True)
    with Tape() as tape:
        agg = neighbor_sum(h, adj)
        loss = sum_all(agg)
    assert np.array_equal(agg.data, [[10.0], [101.0], [10.0]])
    backward(loss)
    # gradient flows back along reversed edges: node degree
    assert np.array_equal(h.grad, [[1.0], [2.0], [1.0]])


def test_gated_aggregate_closed_and_open():
    # sigmoid(-inf) is exactly 0.0 and sigmoid(+inf) exactly 1.0, whatever
    # the finite neighbor term
    graphs = [
        line_graph(3),
        SparseAdjacency(4, [], []),
        # node 4 has no edges
        SparseAdjacency(5, [0, 0, 1, 3, 1], [1, 2, 2, 1, 0]),
    ]
    rng = np.random.default_rng(5)
    for adj in graphs:
        n, n_edges = adj.n_nodes, adj.n_edges
        values = Tensor(rng.normal(size=(n, 3)))
        neighbor = Tensor(rng.normal(size=(n, 3)))
        closed = Tensor(np.full((n_edges, 3), -np.inf))
        opened = Tensor(np.full((n_edges, 3), np.inf))
        assert np.array_equal(gated_aggregate(closed, neighbor, values, adj).data,
                              np.zeros((n, 3)))
        assert np.array_equal(gated_aggregate(opened, neighbor, values, adj).data,
                              neighbor_sum(values, adj).data)


GATED_AGGREGATE_GRAPHS = [
    sbm_generate(SbmParams(0.6, 0.3, (3 + seed % 4, 5, 6)), seed).adjacency
    for seed in range(10)
] + [
    SparseAdjacency(4, [], []),
    # the gradient-check graph: node 4 has no edges, 0 and 2 send and receive several
    SparseAdjacency(6, [0, 2, 2, 5, 1, 0, 3], [2, 0, 3, 2, 0, 5, 0]),
]


def _wide_range(rng, shape, decades):
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-decades, decades, size=shape)


def _gated_chain_and_grads(op, adj, seed):
    rng = np.random.default_rng(seed)
    n, n_edges, width = adj.n_nodes, adj.n_edges, 5
    # gate inputs over a few decades keep the sigmoid unsaturated; values and
    # the output gradient over sixteen, so any reordered sum would show
    center = Tensor(_wide_range(rng, (n_edges, width), 2), requires_grad=True)
    neighbor = Tensor(_wide_range(rng, (n, width), 2), requires_grad=True)
    values = Tensor(_wide_range(rng, (n, width), 8), requires_grad=True)
    proj = Tensor(_wide_range(rng, (n, width), 8))
    with Tape() as tape:
        out = op(center, neighbor, values, adj)
        loss = sum_all(hadamard(out, proj))
    backward(loss)
    return out.data, center.grad, neighbor.grad, values.grad


def _add_at(rows, idx, n_out):
    out = np.zeros((n_out, rows.shape[1]))
    np.add.at(out, idx, rows)
    return out


def _gated_neighbor_sum(h, gates, adj):
    """Row i sums gates_e * h_j over in-edges e = (j -> i), differentiable
    in both, on the np.add.at reference the kernels match bit for bit."""
    hd, gd = h.data, gates.data

    def rule(g):
        g_dst = g[adj.dst]
        return _add_at(gd * g_dst, adj.src, adj.n_nodes), hd[adj.src] * g_dst

    return _result(_add_at(gd * hd[adj.src], adj.dst, adj.n_nodes), (h, gates), rule)


def _unfused_gated_aggregate(center, neighbor, values, adj):
    gates = sigmoid(add(center, gather_rows(neighbor, adj, "src")))
    return _gated_neighbor_sum(values, gates, adj)


@pytest.mark.parametrize("graph_id", range(len(GATED_AGGREGATE_GRAPHS)))
def test_gated_aggregate_bit_identical_to_unfused_chain(graph_id):
    adj = GATED_AGGREGATE_GRAPHS[graph_id]
    fused = _gated_chain_and_grads(gated_aggregate, adj, 300 + graph_id)
    chain = _gated_chain_and_grads(_unfused_gated_aggregate, adj, 300 + graph_id)
    for got, want in zip(fused, chain):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_gated_aggregate_shapes_checked():
    adj = line_graph(3)
    n, n_edges = adj.n_nodes, adj.n_edges
    center = Tensor(np.ones((n_edges, 2)))
    node_rows = Tensor(np.ones((n, 2)))
    with pytest.raises(ShapeError):
        gated_aggregate(Tensor(np.ones((n, 2))), node_rows, node_rows, adj)
    with pytest.raises(ShapeError):
        gated_aggregate(Tensor(np.ones(n_edges)), node_rows, node_rows, adj)
    with pytest.raises(ShapeError):
        gated_aggregate(center, Tensor(np.ones((n, 3))), node_rows, adj)
    with pytest.raises(ShapeError):
        gated_aggregate(center, node_rows, Tensor(np.ones((n, 3))), adj)
    with pytest.raises(GraphStructureError):
        gated_aggregate(center, Tensor(np.ones((n + 1, 2))), node_rows, adj)
    with pytest.raises(GraphStructureError):
        gated_aggregate(center, node_rows, Tensor(np.ones((n - 1, 2))), adj)


def test_every_public_op_has_a_gradient_check():
    ops = {name for name, fn in inspect.getmembers(tensor, inspect.isfunction)
           if fn.__module__ == tensor.__name__ and not name.startswith("_")
           and name != "backward"}
    checked = [name for name, _, _ in op_checks()]

    def covers(check, op):
        return check == op or check.startswith(op + "_")

    assert {op for op in ops if not any(covers(c, op) for c in checked)} == set()
    assert [c for c in checked if not any(covers(c, op) for op in ops)] == []


def test_sum_all_grad_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = hadamard(sum_all(x), Tensor(2.0))
    assert loss.item() == 30.0
    backward(loss)
    assert np.array_equal(x.grad, 2.0 * np.ones((2, 3)))


def test_batch_norm_normalizes_columns():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(2.0, 3.0, size=(50, 4)))
    gamma = Tensor(np.ones(4))
    beta = Tensor(np.zeros(4))
    out = batch_norm(x, gamma, beta)
    assert np.abs(out.data.mean(axis=0)).max() < 1e-6
    assert np.abs(out.data.var(axis=0) - 1.0).max() < 1e-5  # eps shifts it slightly


def test_batch_norm_constant_column_zeroed():
    x = Tensor(np.full((10, 2), 7.0))
    gamma = Tensor(np.ones(2))
    beta = Tensor(np.array([0.5, -0.5]))
    out = batch_norm(x, gamma, beta)
    assert np.allclose(out.data, np.tile([0.5, -0.5], (10, 1)))


def test_batch_norm_degenerate_batch():
    x = Tensor(np.ones((1, 3)))
    gamma = Tensor(np.ones(3))
    beta = Tensor(np.zeros(3))
    with pytest.raises(DegenerateBatchError):
        batch_norm(x, gamma, beta)


def test_softmax_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 3)))
    loss = softmax_cross_entropy(logits, np.array([0, 1, 2, 0]), np.ones(3))
    assert abs(loss.item() - np.log(3.0)) < 1e-12


def test_softmax_cross_entropy_weights_reweight_mean():
    logits = Tensor(np.zeros((2, 2)))
    targets = np.array([0, 1])
    # weight 3 on class 0, 1 on class 1: loss = (3*l0 + 1*l1) / 4
    loss = softmax_cross_entropy(logits, targets, np.array([3.0, 1.0]))
    assert abs(loss.item() - np.log(2.0)) < 1e-12  # both terms equal here
    logits2 = Tensor(np.array([[5.0, 0.0], [5.0, 0.0]]))
    l0 = -np.log(np.exp(5) / (np.exp(5) + 1))
    l1 = -np.log(1 / (np.exp(5) + 1))
    loss2 = softmax_cross_entropy(logits2, targets, np.array([3.0, 1.0]))
    assert abs(loss2.item() - (3 * l0 + l1) / 4) < 1e-12


@pytest.mark.parametrize("n_rows, targets, weights", [
    (2, [0, 0], [0.0, 1.0]),
    (2, [0, 1], [0.0, 0.0]),
    (0, [], [1.0, 1.0]),
], ids=["weight-only-on-absent-class", "all-weights-zero", "no-rows"])
def test_softmax_cross_entropy_needs_positive_target_weight(n_rows, targets, weights):
    # each would divide zero by zero into a NaN loss
    with pytest.raises(ContractError, match="sum to 0"):
        softmax_cross_entropy(Tensor(np.zeros((n_rows, 2))), targets, weights)


def test_softmax_cross_entropy_grad_is_probability_gap():
    logits = Tensor(np.zeros((1, 3)), requires_grad=True)
    with Tape() as tape:
        loss = softmax_cross_entropy(logits, np.array([1]), np.ones(3))
    backward(loss)
    assert np.allclose(logits.grad, [[1 / 3, 1 / 3 - 1, 1 / 3]])


def test_softmax_cross_entropy_target_range_checked():
    logits = Tensor(np.zeros((2, 2)))
    with pytest.raises(ContractError):
        softmax_cross_entropy(logits, np.array([0, 2]), np.ones(2))


def test_big_logits_stay_finite():
    logits = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
    loss = softmax_cross_entropy(logits, np.array([0, 1]), np.ones(2))
    assert np.isfinite(loss.item())
    assert loss.item() < 1e-12  # perfectly confident and correct
