"""Graph architectures behind one layer interface.

Every layer maps (node features n x H, adjacency) -> node features n x H,
so layers stack to any depth and the identity skip connection is always
shape-compatible. Three layer families are recurrent (they run
``inner_steps`` update iterations inside each layer); three are
single-pass convolutions, all served by one class, ``ConvLayer``.

    vrnn       h_i <- sum_j A sigma(B sigma(U x_i + V h_j)),  h(0) = 0
    ggnn       GRU cell driven by the neighbor sum,            h(0) = x
    glstm      LSTM cell with per-edge forget gates,           h(0) = c(0) = 0
    commnet    ReLU(U h_i + sum_j V h_j)
    edge_gcn   ReLU(sum_j eta_ij * V h_j)
    gated_gcn  ReLU(U h_i + sum_j eta_ij * V h_j)

with edge gates eta_ij = sigmoid(A h_i + B h_j). The gates and the sum they
weight are one tape op, ``gated_aggregate``, which also computes glstm's
forget gates. Neighbor-transform biases are added once per node after
aggregation, which keeps gated_gcn with all gates forced to one
bit-for-bit equal to commnet.

Each parameter is named by its attribute path (``layers.0.norm.gamma``), in
attribute-assignment order; those names key the checkpoint, the optimizer
state and the parameter count.
"""

import functools
import json
from dataclasses import asdict, dataclass

import numpy as np

from .adjacency import SparseAdjacency
from .errors import BudgetError, ContractError
from .tensor import (
    Tensor,
    add,
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
    tanh,
)

RECURRENT_ARCHITECTURES = ("vrnn", "ggnn", "glstm")
CONV_ARCHITECTURES = ("commnet", "edge_gcn", "gated_gcn")
ARCHITECTURES = RECURRENT_ARCHITECTURES + CONV_ARCHITECTURES

@dataclass(frozen=True)
class ModelConfig:
    arch: str
    n_layers: int
    hidden_dim: int
    input_dim: int
    n_classes: int
    inner_steps: int = 3
    residual: bool = True
    use_norm: bool = True

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ContractError(f"unknown architecture {self.arch!r}")
        for name in ("n_layers", "hidden_dim", "inner_steps"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ContractError(f"{name} must be >= 1 and an int, got {value!r}")

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))


class Module:
    """Base of every layer and the model; a parameter is declared by assigning it.

    ``named_tensors`` walks the attributes in assignment order: a Tensor is
    yielded as ``prefix + name``, a Module or a list of Modules recurses with
    ``name.`` or ``name.<i>.`` added to the prefix, and the rest is skipped.
    """

    def named_tensors(self, prefix=""):
        out = []
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                out.append((prefix + name, value))
            elif isinstance(value, Module):
                out += value.named_tensors(f"{prefix}{name}.")
            elif isinstance(value, list):
                for i, mod in enumerate(value):
                    out += mod.named_tensors(f"{prefix}{name}.{i}.")
        return out


class Linear(Module):
    """Dense map x @ W + b, initialized uniform in +-1/sqrt(fan_in)."""

    def __init__(self, rng, in_dim, out_dim):
        bound = 1.0 / np.sqrt(in_dim)
        self.weight = Tensor(rng.uniform(-bound, bound, (in_dim, out_dim)),
                             requires_grad=True)
        self.bias = Tensor(rng.uniform(-bound, bound, out_dim), requires_grad=True)

    def __call__(self, x):
        return bias_add(matmul(x, self.weight), self.bias)


class BatchNorm(Module):
    """Per-feature normalization over the nodes of the current graph.

    Training and evaluation both use the graph's own statistics, so the
    learned affine is the only state.
    """

    def __init__(self, dim):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x):
        return batch_norm(x, self.gamma, self.beta)


class VrnnLayer(Module):
    """Fixed-point iteration of a two-level perceptron over in-edges.

    Starting from h = 0, each step recomputes every node as the sum over
    in-edges of out_map(sigma(mid_map(sigma(input_map(x_dst) + state_map(h_src))))).
    """

    arch = "vrnn"

    def __init__(self, rng, hidden_dim, inner_steps, use_norm=True):
        self.hidden_dim = hidden_dim
        self.inner_steps = inner_steps
        self.input_map = Linear(rng, hidden_dim, hidden_dim)
        self.state_map = Linear(rng, hidden_dim, hidden_dim)
        self.mid_map = Linear(rng, hidden_dim, hidden_dim)
        self.out_map = Linear(rng, hidden_dim, hidden_dim)
        self.norm = BatchNorm(hidden_dim) if use_norm else None

    def __call__(self, x, adj):
        n = x.data.shape[0]
        ux = self.input_map(x)
        ux_dst = gather_rows(ux, adj, "dst")
        h = Tensor(np.zeros((n, self.hidden_dim)))
        for _ in range(self.inner_steps):
            vh = self.state_map(h)
            inner = sigmoid(add(ux_dst, gather_rows(vh, adj, "src")))
            per_edge = self.out_map(sigmoid(self.mid_map(inner)))
            h = scatter_rows(per_edge, adj, "dst")
            if self.norm:
                h = self.norm(h)
        return h


class GgnnLayer(Module):
    """GRU cell whose neighborhood input is the plain neighbor sum; h starts at x."""

    arch = "ggnn"

    def __init__(self, rng, hidden_dim, inner_steps, use_norm=True):
        self.inner_steps = inner_steps
        self.update_in = Linear(rng, hidden_dim, hidden_dim)
        self.update_nb = Linear(rng, hidden_dim, hidden_dim)
        self.reset_in = Linear(rng, hidden_dim, hidden_dim)
        self.reset_nb = Linear(rng, hidden_dim, hidden_dim)
        self.cand_in = Linear(rng, hidden_dim, hidden_dim)
        self.cand_nb = Linear(rng, hidden_dim, hidden_dim)
        self.norm = BatchNorm(hidden_dim) if use_norm else None

    def __call__(self, x, adj):
        h = x
        for _ in range(self.inner_steps):
            agg = neighbor_sum(h, adj)
            if self.norm:
                agg = self.norm(agg)
            z = sigmoid(add(self.update_in(h), self.update_nb(agg)))
            r = sigmoid(add(self.reset_in(h), self.reset_nb(agg)))
            cand = tanh(add(self.cand_in(hadamard(h, r)), self.cand_nb(agg)))
            h = add(hadamard(one_minus(z), h), hadamard(z, cand))
        return h


class GlstmLayer(Module):
    """LSTM cell over the neighbor sum with a sigmoid forget gate per edge.

    h and c start at zero each layer; the layer input x feeds every gate at
    every step. Cell mixing uses the neighbors' previous-step cells, so the
    whole node set updates simultaneously: the forget gate of edge j -> i is
    sigmoid(forget_in(x)_i + forget_nb(h)_j) and weights c_j. On the first
    step every c_j is zero, so the forget gate runs from the second step on;
    with one inner step, forget_in and forget_nb get no gradient.
    """

    arch = "glstm"

    def __init__(self, rng, hidden_dim, inner_steps, use_norm=True):
        self.hidden_dim = hidden_dim
        self.inner_steps = inner_steps
        self.in_gate_in = Linear(rng, hidden_dim, hidden_dim)
        self.in_gate_nb = Linear(rng, hidden_dim, hidden_dim)
        self.out_gate_in = Linear(rng, hidden_dim, hidden_dim)
        self.out_gate_nb = Linear(rng, hidden_dim, hidden_dim)
        self.cell_in = Linear(rng, hidden_dim, hidden_dim)
        self.cell_nb = Linear(rng, hidden_dim, hidden_dim)
        self.forget_in = Linear(rng, hidden_dim, hidden_dim)
        self.forget_nb = Linear(rng, hidden_dim, hidden_dim)
        self.norm = BatchNorm(hidden_dim) if use_norm else None

    def __call__(self, x, adj):
        n = x.data.shape[0]
        ui = self.in_gate_in(x)
        uo = self.out_gate_in(x)
        uc = self.cell_in(x)
        uf_dst = gather_rows(self.forget_in(x), adj, "dst")
        h = Tensor(np.zeros((n, self.hidden_dim)))
        for step in range(self.inner_steps):
            agg = neighbor_sum(h, adj)
            if self.norm:
                agg = self.norm(agg)
            gate_in = sigmoid(add(ui, self.in_gate_nb(agg)))
            gate_out = sigmoid(add(uo, self.out_gate_nb(agg)))
            cand = tanh(add(uc, self.cell_nb(agg)))
            if step == 0:
                # every neighbor cell is still zero, so the forgotten term is
                # exactly zero and so are its gradients
                c = hadamard(gate_in, cand)
            else:
                forget_nb = self.forget_nb(h)
                c = add(hadamard(gate_in, cand), gated_aggregate(uf_dst, forget_nb, c, adj))
            h = hadamard(gate_out, tanh(c))
        return h


class ConvLayer(Module):
    """ReLU(U h_i + sum_j eta_ij * V h_j) and its two reductions.

    gated_gcn keeps both terms; commnet drops the edge gates and aggregates
    with the plain neighbor sum; edge_gcn drops the center term U h_i.
    Gates are computed from this layer's input, fused with the sum they
    weight in one ``gated_aggregate``.
    The class-level ``arch`` is the default variant; each instance sets its
    own.
    """

    arch = "gated_gcn"

    def __init__(self, rng, hidden_dim, use_norm=True, arch="gated_gcn"):
        if arch not in CONV_ARCHITECTURES:
            raise ContractError(f"{arch!r} is not a convolutional architecture")
        self.arch = arch
        self.centered = arch != "edge_gcn"
        self.gated = arch != "commnet"
        # draws center, neighbor, gate_center, gate_neighbor in that order, skipping
        # absent ones: seeded runs and their golden loss series depend on it
        if self.centered:
            self.center = Linear(rng, hidden_dim, hidden_dim)
        self.neighbor = Linear(rng, hidden_dim, hidden_dim)
        if self.gated:
            self.gate_center = Linear(rng, hidden_dim, hidden_dim)
            self.gate_neighbor = Linear(rng, hidden_dim, hidden_dim)
        self.norm = BatchNorm(hidden_dim) if use_norm else None

    def __call__(self, h, adj):
        if not self.gated:
            agg = neighbor_sum(matmul(h, self.neighbor.weight), adj)
        else:
            # gate_center, gate_neighbor, then the neighbor map: backward
            # sums h's gradients in the reverse of this order
            center = gather_rows(self.gate_center(h), adj, "dst")
            neighbor = self.gate_neighbor(h)
            agg = gated_aggregate(center, neighbor, matmul(h, self.neighbor.weight), adj)
        pre = bias_add(agg, self.neighbor.bias)
        if self.centered:
            pre = add(self.center(h), pre)
        if self.norm:
            pre = self.norm(pre)
        return relu(pre)


_RECURRENT_LAYERS = {"vrnn": VrnnLayer, "ggnn": GgnnLayer, "glstm": GlstmLayer}


def make_layer(arch, rng, hidden_dim, inner_steps, use_norm):
    """One layer of ``arch``; the three convolutional variants share ConvLayer."""
    if arch in CONV_ARCHITECTURES:
        return ConvLayer(rng, hidden_dim, use_norm, arch=arch)
    return _RECURRENT_LAYERS[arch](rng, hidden_dim, inner_steps, use_norm)


class GraphModel(Module):
    """Input embedding, a stack of identical-width layers, and a linear readout."""

    def __init__(self, config: ModelConfig, seed=0):
        self.config = config
        rng = np.random.default_rng(seed)
        h = config.hidden_dim
        self.embed = Linear(rng, config.input_dim, h)
        self.layers = [make_layer(config.arch, rng, h, config.inner_steps,
                                  config.use_norm)
                       for _ in range(config.n_layers)]
        self.readout = Linear(rng, h, config.n_classes)

    def forward(self, features, adj: SparseAdjacency, training=None):
        """features: ndarray n x input_dim. Returns logit Tensor n x n_classes.

        The pass is the same in training and evaluation and leaves the model
        unchanged; ``training`` is accepted and ignored.
        """
        h = self.embed(Tensor(np.asarray(features, dtype=np.float64)))
        for layer in self.layers:
            out = layer(h, adj)
            h = add(out, h) if self.config.residual else out
        return self.readout(h)

    def parameters(self):
        return dict(self.named_tensors())

    def zero_grads(self):
        for _, t in self.named_tensors():
            t.grad = None

    def save(self, path):
        arrays = {f"param:{k}": t.data for k, t in self.named_tensors()}
        np.savez(path, __config__=np.array(self.config.to_json()), **arrays)

    @classmethod
    def load(cls, path):
        """Rebuild a saved model; every parameter must be present with its shape."""
        with np.load(path, allow_pickle=False) as blob:
            if "__config__" not in blob.files:
                raise ContractError(f"{path}: checkpoint has no __config__ entry")
            try:
                config = ModelConfig.from_json(str(blob["__config__"]))
            except (TypeError, ValueError) as exc:
                raise ContractError(f"{path}: malformed __config__: {exc}") from None
            model = cls(config, seed=0)
            params = model.parameters()
            keys = set(blob.files) - {"__config__"}
            expected = {f"param:{k}" for k in params}
            if keys != expected:
                old = (" (buffer: entries are batch-norm running statistics, "
                       "which this format no longer has)"
                       if any(k.startswith("buffer:") for k in keys) else "")
                raise ContractError(
                    f"{path}: checkpoint does not match a {config.arch} model: "
                    f"missing {sorted(expected - keys)}, "
                    f"unexpected {sorted(keys - expected)}{old}")
            for name, t in params.items():
                data = blob[f"param:{name}"]
                if data.shape != t.data.shape:
                    raise ContractError(f"{path}: {name} has shape {data.shape}, "
                                        f"expected {t.data.shape}")
                t.data = data.astype(np.float64)
        return model


@functools.cache
def _layer_tensor_ranks(arch, use_norm):
    """Rank of each tensor of one ``arch`` layer; at width h, rank r holds h**r scalars."""
    layer = make_layer(arch, np.random.default_rng(0), 1, 1, use_norm)
    return tuple(t.data.ndim for _, t in layer.named_tensors())


def count_params(config: ModelConfig):
    """Exact learnable-scalar count: weights, biases, and norm affine terms."""
    h = config.hidden_dim
    per_layer = sum(h ** r for r in _layer_tensor_ranks(config.arch, config.use_norm))
    embed = config.input_dim * h + h
    readout = h * config.n_classes + config.n_classes
    return embed + config.n_layers * per_layer + readout


def solve_hidden_for_budget(arch, n_layers, budget, input_dim, n_classes,
                            use_norm=True):
    """Largest hidden width whose parameter count fits the budget.

    The count is monotone increasing in the width, so bisection applies. A
    budget below 1 is a ContractError, one too small for width 1 a BudgetError.
    """
    if budget < 1:
        raise ContractError(f"budget must be >= 1, got {budget!r}")

    def count(h):
        return count_params(ModelConfig(arch=arch, n_layers=n_layers, hidden_dim=h,
                                        input_dim=input_dim, n_classes=n_classes,
                                        use_norm=use_norm))

    if count(1) > budget:
        raise BudgetError(
            f"budget {budget} cannot fit {arch} with {n_layers} layers (min {count(1)})"
        )
    hi = 2
    while count(hi) <= budget:
        hi *= 2
    lo = hi // 2  # count(lo) <= budget < count(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if count(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo
