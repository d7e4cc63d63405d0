"""Dense float64 tensors with taped reverse-mode differentiation.

Operations executed inside a ``with Tape() as tape:`` block are recorded
in execution order (which is already topological for define-by-run code);
:func:`backward` replays the tape once, in reverse, freeing each
intermediate gradient once its op's rule has run. Only leaves get ``.grad``,
and it accumulates across backward calls until the caller zeroes it.

The tape owns the recorded graph. Tensors hold only a weak reference back
to it, so the graph never forms a reference cycle and is freed by plain
refcounting the moment the tape is dropped; a training loop that rebinds
its tape each iteration runs in constant memory. The flip side: to call
:func:`backward` after the ``with`` block ends, keep the tape bound to a
variable until then.

Every differentiable op has one form: it checks its inputs, computes its
output, and returns ``_result(data, inputs, rule)``, where ``rule(g)``
turns the output gradient into one gradient per input. A rule closes over
the arrays it reads and never over a Tensor, and a tape entry holds its
output's key rather than the output (see :func:`_result`), so the tape
keeps alive only what backward reads: an op output no rule reads is freed
as soon as the caller drops it. Outside a tape the rule is never
recorded, which is how evaluation passes avoid autodiff overhead.

Gradient arrays are shared, not copied: :func:`backward` may hand one
array to several leaves (both inputs of an ``add`` get the same ``.grad``).
Treat every ``.grad`` as read-only; to change one, rebind it to a new array.

On glibc, importing this module raises malloc's mmap and trim thresholds
(see :func:`_keep_freed_memory`), so the pages a training step frees are
reused by the next step instead of being returned to the kernel and
faulted back in.
"""

import ctypes
import weakref

import numpy as np

from . import kernels
from .errors import (
    ContractError,
    DegenerateBatchError,
    GraphStructureError,
    ShapeError,
)


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 512 << 20


def _keep_freed_memory():
    """Stop glibc from returning a step's freed pages to the kernel.

    Fixing the mmap threshold keeps every step-sized array on the heap,
    and the high trim threshold keeps the heap from shrinking between
    steps. The mmap threshold goes first: fixing only the trim threshold
    turns off glibc's adaptive mmap threshold, so each large array would
    be mmapped and unmapped on every step. Returns False, changing
    nothing, where ``mallopt`` is missing or refuses the mmap threshold.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if not mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES):
        return False
    return bool(mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES))


MALLOC_TUNED = _keep_freed_memory()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_tape", "_key", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._tape = None
        self._key = None

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of differentiable operations.

    Each entry is (key, targets, rule), as :func:`_result` records it.
    Entries are appended in execution order, so every operation's inputs
    appear before it. Of the tensors, the tape holds only the leaves that
    some rule routes a gradient to, never an op output.
    """

    def __init__(self):
        self.ops = []
        self._self_ref = weakref.ref(self)

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


_TAPE_STACK = []


def _result(data, inputs, rule):
    """Wrap an op's output; record (key, targets, rule) if a tape needs it.

    ``rule(g)`` returns one gradient per input, in ``inputs`` order (the
    order they accumulate in), and may close over arrays, never over a
    Tensor. It may return None for an input that needed no gradient when
    the op ran (closing over that input's ``requires_grad`` to know). It is
    recorded only while a tape is active and some input requires a
    gradient; otherwise it is dropped unused. The output's key is its
    entry's position on the tape. Each input's target is its key if this
    tape recorded it, the input itself if it requires a gradient otherwise
    (a leaf, or an output of another tape), and None if it needs no
    gradient.
    """
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=needs)
    if needs:
        ref = tape._self_ref
        targets = tuple(t._key if t._tape is ref else t if t.requires_grad else None
                        for t in inputs)
        out._tape = ref
        out._key = len(tape.ops)
        tape.ops.append((out._key, targets, rule))
    return out


def backward(loss):
    """Populate .grad on every requires_grad leaf reachable from loss.

    Gradients flow by target (see :func:`_result`): an op output's flows
    under its key and is freed once its rule has run; a leaf's flows under
    the leaf itself and, at the end, accumulates onto its existing .grad,
    which callers zero between steps. A tensor recorded on another tape is
    a leaf here and gets .grad too. Flow is per call: two backwards double
    leaf grads.

    A target's first incoming gradient is kept without a copy, so it may
    be the very array another target receives. Only arrays this call
    allocated (``owned``) are ever summed into in place.
    """
    if loss.data.size != 1:
        raise ContractError("backward requires a scalar loss")
    tape = loss._tape() if loss._tape is not None else None
    if tape is None:
        raise ContractError(
            "loss is not attached to a live tape; compute it inside "
            "'with Tape() as tape:' and keep the tape bound until backward")
    flows = {}
    owned = set()

    def acc(target, g):
        if target is None:
            return
        if target in owned:
            flows[target] += g
        elif target in flows:
            flows[target] = flows[target] + g
            owned.add(target)
        else:
            flows[target] = g

    acc(loss._key, np.ones_like(loss.data))
    for key, targets, rule in reversed(tape.ops):
        g = flows.pop(key, None)
        if g is None:
            continue
        for target, grad in zip(targets, rule(g)):
            acc(target, grad)
    for leaf, g in flows.items():
        leaf.grad = g if leaf.grad is None else leaf.grad + g


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops
# ---------------------------------------------------------------------------


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")
    ad, bd = a.data, b.data
    a_needs = a.requires_grad

    def rule(g):
        return (g @ bd.T if a_needs else None), ad.T @ g

    return _result(ad @ bd, (a, b), rule)


def add(a, b):
    _check_same_shape(a, b, "add")

    def rule(g):
        return g, g

    return _result(a.data + b.data, (a, b), rule)


def hadamard(a, b):
    _check_same_shape(a, b, "hadamard")

    ad, bd = a.data, b.data

    def rule(g):
        return g * bd, g * ad

    return _result(ad * bd, (a, b), rule)


def one_minus(x):
    def rule(g):
        return (-g,)

    return _result(1.0 - x.data, (x,), rule)


def bias_add(x, b):
    """Add a length-d bias row to every row of an n x d matrix.

    The only broadcasting the library performs.
    """
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"bias_add: shapes {x.data.shape} and {b.data.shape}")

    def rule(g):
        return g, g.sum(axis=0)

    return _result(x.data + b.data, (x, b), rule)


def _logistic(z, out):
    """out = 1 / (1 + exp(-z)), computed in out (which may be z itself)."""
    np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def sigmoid(x):
    data = _logistic(x.data, np.empty_like(x.data))

    def rule(g):
        gx = g * data
        gx *= 1.0 - data
        return (gx,)

    return _result(data, (x,), rule)


def tanh(x):
    data = np.tanh(x.data)

    def rule(g):
        return (g * (1.0 - data * data),)

    return _result(data, (x,), rule)


def relu(x):
    data = np.maximum(x.data, 0.0)

    def rule(g):
        # the output is positive exactly where the input is (NaN in both
        # fails the test), so the rule need not keep the input alive
        return (g * (data > 0.0),)

    return _result(data, (x,), rule)


def sum_all(x):
    shape = x.data.shape

    def rule(g):
        return (np.full(shape, float(g)),)

    return _result(np.asarray(x.data.sum()), (x,), rule)


# ---------------------------------------------------------------------------
# graph aggregation ops (hot path, kernel-backed)
# ---------------------------------------------------------------------------


def _check_node_rows(x, adj, op):
    if x.data.ndim != 2:
        raise ShapeError(f"{op} expects a 2-d tensor")
    if x.data.shape[0] != adj.n_nodes:
        raise GraphStructureError(
            f"{op}: adjacency has {adj.n_nodes} nodes, features have "
            f"{x.data.shape[0]} rows")


def gather_rows(x, adj, endpoint):
    """Row e of the result is x[adj.<endpoint>[e]], one row per edge.

    The gradient scatter-adds each edge row back into its node row.
    """
    _check_node_rows(x, adj, "gather_rows")
    idx = adj.endpoint(endpoint)

    def rule(g):
        return (kernels.scatter_rows(g, adj, endpoint),)

    return _result(np.take(x.data, idx, axis=0), (x,), rule)


def scatter_rows(x, adj, endpoint):
    """Row v of the result sums the rows e of x with adj.<endpoint>[e] == v."""
    if x.data.ndim != 2 or x.data.shape[0] != adj.n_edges:
        raise ShapeError(
            f"scatter_rows: one row per edge required, got {x.data.shape} "
            f"for {adj.n_edges} edges")
    idx = adj.endpoint(endpoint)

    def rule(g):
        return (np.take(g, idx, axis=0),)

    return _result(kernels.scatter_rows(x.data, adj, endpoint), (x,), rule)


def neighbor_sum(h, adj):
    """Row i of the result is the sum of h rows over in-neighbors of i."""
    _check_node_rows(h, adj, "neighbor_sum")
    data = kernels.neighbor_sum(h.data, adj, "dst")

    def rule(g):
        return (kernels.neighbor_sum(g, adj, "src"),)

    return _result(data, (h,), rule)


def gated_aggregate(center, neighbor, values, adj):
    """Row i = sum over in-edges e = (j -> i) of sigmoid(center_e + neighbor_j) * values_j.

    ``center`` has one row per edge; ``neighbor`` and ``values`` have one
    row per node. The result and gradients are bit-identical to the chain
    of gather_rows(neighbor, "src"), add, sigmoid and a differentiable
    gated sum: the op performs the chain's floating-point operations in
    the chain's order, but as one tape entry that keeps only the E x H
    gate array.
    """
    _check_node_rows(neighbor, adj, "gated_aggregate")
    _check_node_rows(values, adj, "gated_aggregate")
    if center.data.ndim != 2 or center.data.shape[0] != adj.n_edges:
        raise ShapeError(
            f"gated_aggregate: one center row per edge required, got "
            f"{center.data.shape} for {adj.n_edges} edges")
    width = center.data.shape[1]
    if neighbor.data.shape[1] != width or values.data.shape[1] != width:
        raise ShapeError(
            f"gated_aggregate: widths differ: center {width}, neighbor "
            f"{neighbor.data.shape[1]}, values {values.data.shape[1]}")
    src = adj.src
    vd = values.data
    gates = center.data + np.take(neighbor.data, src, axis=0)
    _logistic(gates, gates)
    data = kernels.gated_neighbor_sum(vd, gates, adj)

    def rule(g):
        # g[dst] is gathered once for both gradients
        g_dst = np.take(g, adj.dst, axis=0)
        gv = kernels.scatter_rows(gates * g_dst, adj, "src")
        gx = np.take(vd, src, axis=0)
        gx *= g_dst
        del g_dst  # one E x H array fewer while the gate factors run
        gx *= gates
        gx *= 1.0 - gates
        return gv, gx, kernels.scatter_rows(gx, adj, "src")

    return _result(data, (values, center, neighbor), rule)


# ---------------------------------------------------------------------------
# batch normalization over the node dimension
# ---------------------------------------------------------------------------

BATCH_NORM_EPS = 1e-5


def batch_norm(x, gamma, beta):
    """Normalize each feature column over nodes, then apply a learned affine.

    The batch is the node set of one graph: every call, in training and in
    evaluation alike, uses that graph's own mean and variance, so there is
    no stored state.
    """
    if x.data.ndim != 2:
        raise ShapeError("batch_norm expects a 2-d tensor")
    n = x.data.shape[0]
    if n < 2:
        raise DegenerateBatchError("batch norm needs at least 2 nodes")
    mean = x.data.mean(axis=0)
    var = x.data.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + BATCH_NORM_EPS)
    xhat = (x.data - mean) * inv_std
    gd = gamma.data
    data = xhat * gd + beta.data
    x_needs = x.requires_grad

    def rule(g):
        gx = None
        if x_needs:
            gx = g * gd
            gx = inv_std / n * (n * gx - gx.sum(axis=0) - xhat * (gx * xhat).sum(axis=0))
        return (g * xhat).sum(axis=0), g.sum(axis=0), gx

    return _result(data, (gamma, beta, x), rule)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits, targets, class_weights):
    """Weighted mean of per-node cross-entropy, numerically stabilized.

    targets: int class index per node.
    class_weights: one non-negative weight per class; the weights of the
    targets present must sum above zero, or the mean would be 0/0.
    """
    targets = np.asarray(targets, dtype=np.int64)
    class_weights = np.asarray(class_weights, dtype=np.float64)
    n, n_classes = logits.data.shape
    if targets.shape != (n,):
        raise ShapeError("one target per logit row required")
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ContractError("target class out of range")
    if (class_weights < 0).any():
        raise ContractError("class weights must be non-negative")
    w = class_weights[targets]
    w_total = w.sum()
    if not w_total > 0:
        raise ContractError(
            f"the targets' class weights sum to {w_total}, so the loss has no weighted mean")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_p = shifted - log_z[:, None]
    per_node = -log_p[np.arange(n), targets]
    data = np.asarray((w * per_node).sum() / w_total)

    def rule(g):
        p = np.exp(log_p)
        p[np.arange(n), targets] -= 1.0
        return (p * (float(g) * w / w_total)[:, None],)

    return _result(data, (logits,), rule)
