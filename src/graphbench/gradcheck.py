"""Central-difference validation of every backward rule.

Each check builds a scalar from one op (or one full layer, or a whole
model with its loss), backpropagates, then perturbs every input entry by
+-eps and compares. Errors are relative with a floor of one in the
denominator, so near-zero gradients are compared absolutely.

Run as a library (``run_all``) or through ``graphbench gradcheck``, which
exits nonzero when any check fails.
"""

from dataclasses import dataclass

import numpy as np

from .adjacency import SparseAdjacency
from .generators import SbmParams, sbm_generate
from .models import ARCHITECTURES, GraphModel, ModelConfig, make_layer
from .tensor import (
    Tape,
    Tensor,
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
from .training import weighted_loss

DEFAULT_EPS = 1e-5
DEFAULT_TOL = 1e-4
# width and recurrent steps of each layer check
LAYER_HIDDEN = 4
LAYER_INNER_STEPS = 2


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tol: float
    passed: bool


def finite_diff(scalar_fn, arr):
    """Central-difference gradient of scalar_fn with respect to arr (in place)."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + DEFAULT_EPS
        up = scalar_fn()
        flat[i] = orig - DEFAULT_EPS
        down = scalar_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * DEFAULT_EPS)
    return grad


def _max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def run_check(name, forward_fn, wrt):
    """forward_fn rebuilds the scalar Tensor from the current wrt data."""
    with Tape() as tape:
        loss = forward_fn()
    for _, t in wrt:
        t.grad = None
    backward(loss)
    worst = 0.0
    for _, t in wrt:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = finite_diff(lambda: forward_fn().item(), t.data)
        worst = max(worst, _max_rel_err(analytic, numeric))
    return CheckResult(name=name, max_rel_err=worst, tol=DEFAULT_TOL,
                       passed=worst < DEFAULT_TOL)


def _param(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _away_from_zero(rng, *shape, gap=0.1):
    raw = rng.uniform(gap, 1.0, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return Tensor(raw * sign, requires_grad=True)


def _scalarize(out, proj):
    return sum_all(hadamard(out, proj))


def _test_graph(seed):
    return sbm_generate(SbmParams(0.7, 0.3, (3, 4, 4)), seed)


def op_checks(seed=0):
    """(name, forward_fn, wrt) triples covering every differentiable op."""
    rng = np.random.default_rng(seed)
    checks = []

    x = _param(rng, 4, 3)
    w = _param(rng, 3, 5)
    proj = Tensor(rng.normal(size=(4, 5)))
    checks.append(("matmul", lambda: _scalarize(matmul(x, w), proj),
                   [("x", x), ("w", w)]))

    a = _param(rng, 5, 4)
    b = _param(rng, 5, 4)
    proj2 = Tensor(rng.normal(size=(5, 4)))
    checks.append(("add", lambda: _scalarize(add(a, b), proj2),
                   [("a", a), ("b", b)]))
    checks.append(("hadamard", lambda: _scalarize(hadamard(a, b), proj2),
                   [("a", a), ("b", b)]))
    checks.append(("one_minus", lambda: _scalarize(one_minus(a), proj2), [("a", a)]))

    bias = _param(rng, 4)
    checks.append(("bias_add", lambda: _scalarize(bias_add(a, bias), proj2),
                   [("a", a), ("bias", bias)]))

    s = _param(rng, 6, 3)
    proj3 = Tensor(rng.normal(size=(6, 3)))
    checks.append(("sigmoid", lambda: _scalarize(sigmoid(s), proj3), [("s", s)]))
    checks.append(("tanh", lambda: _scalarize(tanh(s), proj3), [("s", s)]))
    r = _away_from_zero(rng, 6, 3)
    checks.append(("relu", lambda: _scalarize(relu(r), proj3), [("r", r)]))
    half = Tensor(0.5)
    checks.append(("sum_all", lambda: _scalarize(sum_all(s), half), [("s", s)]))

    # a directed graph on 6 nodes where node 4 has no edges and nodes 0, 2
    # receive or send several, so gradients both sum and stay zero
    small = SparseAdjacency(6, [0, 2, 2, 5, 1, 0, 3], [2, 0, 3, 2, 0, 5, 0])
    g = _param(rng, 6, 4)
    proj4 = Tensor(rng.normal(size=(small.n_edges, 4)))
    sc = _param(rng, small.n_edges, 4)
    proj5 = Tensor(rng.normal(size=(6, 4)))
    for end in ("dst", "src"):
        checks.append((f"gather_rows_{end}",
                       lambda end=end: _scalarize(gather_rows(g, small, end), proj4),
                       [("g", g)]))
        checks.append((f"scatter_rows_{end}",
                       lambda end=end: _scalarize(scatter_rows(sc, small, end), proj5),
                       [("sc", sc)]))

    graph = _test_graph(seed + 1)
    adj = graph.adjacency
    h = _param(rng, graph.n_nodes, 4)
    projn = Tensor(rng.normal(size=(graph.n_nodes, 4)))
    checks.append(("neighbor_sum",
                   lambda: _scalarize(neighbor_sum(h, adj), projn), [("h", h)]))
    center = _param(rng, small.n_edges, 4)
    neighbor = _param(rng, 6, 4)
    values = _param(rng, 6, 4)
    checks.append(("gated_aggregate",
                   lambda: _scalarize(gated_aggregate(center, neighbor, values, small),
                                      proj5),
                   [("center", center), ("neighbor", neighbor), ("values", values)]))

    bx = _param(rng, 7, 4)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
    beta = _param(rng, 4)
    projb = Tensor(rng.normal(size=(7, 4)))

    checks.append(("batch_norm",
                   lambda: _scalarize(batch_norm(bx, gamma, beta), projb),
                   [("x", bx), ("gamma", gamma), ("beta", beta)]))

    logits = _param(rng, 8, 3)
    targets = rng.integers(0, 3, size=8)
    weights = rng.uniform(0.5, 2.0, size=3)
    checks.append(("softmax_cross_entropy",
                   lambda: softmax_cross_entropy(logits, targets, weights),
                   [("logits", logits)]))
    return checks


def layer_checks(seed=0):
    """One full layer of every architecture, norm on, params and input."""
    checks = []
    graph = _test_graph(seed + 2)
    adj = graph.adjacency
    for i, arch in enumerate(sorted(ARCHITECTURES)):
        rng = np.random.default_rng(seed + 10 + i)
        layer = make_layer(arch, rng, LAYER_HIDDEN, LAYER_INNER_STEPS, use_norm=True)
        x = _param(rng, graph.n_nodes, LAYER_HIDDEN)
        proj = Tensor(rng.normal(size=(graph.n_nodes, LAYER_HIDDEN)))
        wrt = [("x", x)] + layer.named_tensors()

        def forward(layer=layer, x=x, proj=proj):
            return _scalarize(layer(x, adj), proj)

        checks.append((f"layer_{arch}", forward, wrt))
    return checks


def model_checks(seed=0):
    """End-to-end: residual two-layer model plus the weighted loss."""
    rng = np.random.default_rng(seed + 50)
    graph = _test_graph(seed + 3)
    config = ModelConfig(arch="gated_gcn", n_layers=2, hidden_dim=4,
                         input_dim=5, n_classes=3, residual=True, use_norm=True)
    model = GraphModel(config, seed=seed + 51)
    feats = rng.normal(size=(graph.n_nodes, 5))
    targets = rng.integers(0, 3, size=graph.n_nodes)

    def forward():
        logits = model.forward(feats, graph.adjacency)
        return weighted_loss(logits, targets, 3)

    return [("model_gated_gcn_loss", forward, model.named_tensors())]


def run_all(seed=0):
    results = []
    for name, fn, wrt in op_checks(seed) + layer_checks(seed) + model_checks(seed):
        results.append(run_check(name, fn, wrt))
    return results


def main(seed=0):
    results = run_all(seed=seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max rel err {r.max_rel_err:.3e} "
              f"(tol {r.tol:.0e})")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} gradient checks passed")
    return 1 if failed else 0
