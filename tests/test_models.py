import json
import zipfile

import numpy as np
import pytest

from graphbench import acceptance, models
from graphbench.adjacency import SparseAdjacency
from graphbench.errors import BudgetError, ContractError
from graphbench.generators import SbmParams, sbm_generate
from graphbench.models import (
    ARCHITECTURES,
    ConvLayer,
    GgnnLayer,
    GlstmLayer,
    GraphModel,
    ModelConfig,
    VrnnLayer,
    count_params,
    solve_hidden_for_budget,
)
from graphbench.seeding import derive_seed
from graphbench.tensor import (
    Tape,
    Tensor,
    add,
    backward,
    gated_aggregate,
    gather_rows,
    hadamard,
    neighbor_sum,
    sigmoid,
    sum_all,
    tanh,
)
from graphbench.training import make_instance_fn, weighted_loss


def small_graph(seed=0):
    return sbm_generate(SbmParams(0.6, 0.3, (4, 4, 4)), seed)


def config_for(arch, **kw):
    base = dict(arch=arch, n_layers=2, hidden_dim=6, input_dim=5, n_classes=3,
                inner_steps=2, residual=True, use_norm=True)
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(arch="transformer", n_layers=1, hidden_dim=4,
                    input_dim=3, n_classes=2)
    with pytest.raises(ContractError):
        config_for("ggnn", inner_steps=0)
    with pytest.raises(ContractError):
        config_for("ggnn", n_layers=0)
    for name in ("n_layers", "hidden_dim", "inner_steps"):
        with pytest.raises(ContractError, match=f"{name} must be >= 1 and an int"):
            config_for("ggnn", **{name: 2.0})


def test_count_params_matches_constructed_model():
    for arch in ARCHITECTURES:
        for use_norm in (True, False):
            cfg = config_for(arch, use_norm=use_norm)
            model = GraphModel(cfg, seed=1)
            sizes = sum(t.data.size for _, t in model.named_tensors())
            assert sizes == count_params(cfg), arch


# the maps of one layer, in the order their parameters are named and drawn
LAYER_MAPS = {
    "vrnn": ("input_map", "state_map", "mid_map", "out_map"),
    "ggnn": ("update_in", "update_nb", "reset_in", "reset_nb", "cand_in", "cand_nb"),
    "glstm": ("in_gate_in", "in_gate_nb", "out_gate_in", "out_gate_nb",
              "cell_in", "cell_nb", "forget_in", "forget_nb"),
    "commnet": ("center", "neighbor"),
    "edge_gcn": ("neighbor", "gate_center", "gate_neighbor"),
    "gated_gcn": ("center", "neighbor", "gate_center", "gate_neighbor"),
}


def test_parameter_names_are_the_checkpoint_format():
    for arch in ARCHITECTURES:
        for use_norm in (True, False):
            layer = [f"{m}.{p}" for m in LAYER_MAPS[arch] for p in ("weight", "bias")]
            if use_norm:
                layer += ["norm.gamma", "norm.beta"]
            expect = (["embed.weight", "embed.bias"]
                      + [f"layers.{i}.{k}" for i in range(2) for k in layer]
                      + ["readout.weight", "readout.bias"])
            model = GraphModel(config_for(arch, use_norm=use_norm), seed=1)
            assert [k for k, _ in model.named_tensors()] == expect, (arch, use_norm)


def test_budget_solver_maximal():
    for arch in ARCHITECTURES:
        for budget in (25_000, 100_000):
            h = solve_hidden_for_budget(arch, 6, budget, 11, 10)
            below = count_params(config_for(arch, n_layers=6, hidden_dim=h,
                                            input_dim=11, n_classes=10))
            above = count_params(config_for(arch, n_layers=6, hidden_dim=h + 1,
                                            input_dim=11, n_classes=10))
            assert below <= budget < above, (arch, budget, h)


def test_budget_solver_infeasible():
    with pytest.raises(BudgetError):
        solve_hidden_for_budget("glstm", 6, 10, 11, 10)


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_solver_rejects_budget_below_one(budget):
    # a malformed budget, not one too small for the architecture
    with pytest.raises(ContractError, match="budget must be >= 1"):
        solve_hidden_for_budget("commnet", 6, budget, 11, 10)


def test_init_is_deterministic_and_in_bounds():
    cfg = config_for("gated_gcn")
    a = GraphModel(cfg, seed=3)
    b = GraphModel(cfg, seed=3)
    for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert np.array_equal(ta.data, tb.data), name
    bound = 1.0 / np.sqrt(cfg.hidden_dim)
    w = dict(a.named_tensors())["layers.0.center.weight"].data
    assert np.abs(w).max() <= bound


def permute_instance(graph, feats, perm):
    pos = np.argsort(perm)  # old index -> new index
    pairs = graph.adjacency.undirected_pairs()
    new_pairs = np.sort(np.column_stack((pos[pairs[:, 0]], pos[pairs[:, 1]])), axis=1)
    adj = SparseAdjacency.from_undirected(graph.n_nodes, new_pairs)
    return adj, feats[perm]


def test_permutation_equivariance_all_architectures():
    graph = small_graph(2)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(graph.n_nodes, 5))
    perm = rng.permutation(graph.n_nodes)
    adj_p, feats_p = permute_instance(graph, feats, perm)
    for arch in ARCHITECTURES:
        model = GraphModel(config_for(arch), seed=4)
        base = model.forward(feats, graph.adjacency).data
        permuted = model.forward(feats_p, adj_p).data
        assert np.abs(permuted - base[perm]).max() < 1e-10, arch


def test_unit_gates_reduce_gated_to_commnet_bitwise():
    rng = np.random.default_rng(7)
    gated = ConvLayer(rng, 6, use_norm=True)
    plain = ConvLayer(np.random.default_rng(8), 6, use_norm=True, arch="commnet")
    # share the U/V weights and the norm state
    plain.center.weight.data = gated.center.weight.data.copy()
    plain.center.bias.data = gated.center.bias.data.copy()
    plain.neighbor.weight.data = gated.neighbor.weight.data.copy()
    plain.neighbor.bias.data = gated.neighbor.bias.data.copy()
    plain.norm.gamma.data = gated.norm.gamma.data.copy()
    plain.norm.beta.data = gated.norm.beta.data.copy()

    graph = small_graph(3)
    h = Tensor(np.random.default_rng(9).normal(size=(graph.n_nodes, 6)))
    out_plain = plain(h, graph.adjacency)
    # sigmoid(+inf) is exactly 1.0, so every gate is fully open
    gated.gate_center.bias.data[:] = np.inf
    assert np.array_equal(gated(h, graph.adjacency).data, out_plain.data)
    # a large finite bias leaves the gates just short of 1.0, which shows
    gated.gate_center.bias.data[:] = 30.0
    assert not np.array_equal(gated(h, graph.adjacency).data, out_plain.data)


def test_ggnn_zero_weights_halves_state_each_step():
    # zero weights and biases: z = r = 0.5, candidate = 0, so h <- 0.5 h
    graph = small_graph(4)
    layer = GgnnLayer(np.random.default_rng(0), 4, inner_steps=3, use_norm=False)
    for _, t in layer.named_tensors():
        t.data[...] = 0.0
    x = Tensor(np.random.default_rng(1).normal(size=(graph.n_nodes, 4)))
    out = layer(x, graph.adjacency)
    assert np.allclose(out.data, 0.125 * x.data)


def test_glstm_zero_weights_gives_zero_output():
    graph = small_graph(5)
    layer = GlstmLayer(np.random.default_rng(0), 4, inner_steps=2, use_norm=False)
    for _, t in layer.named_tensors():
        t.data[...] = 0.0
    x = Tensor(np.random.default_rng(1).normal(size=(graph.n_nodes, 4)))
    out = layer(x, graph.adjacency)
    assert np.array_equal(out.data, np.zeros_like(x.data))


def full_forget_glstm(layer, x, adj):
    """GlstmLayer with the forget gate on every inner step, first included."""
    n = x.data.shape[0]
    ui = layer.in_gate_in(x)
    uo = layer.out_gate_in(x)
    uc = layer.cell_in(x)
    uf_dst = gather_rows(layer.forget_in(x), adj, "dst")
    h = Tensor(np.zeros((n, layer.hidden_dim)))
    c = Tensor(np.zeros((n, layer.hidden_dim)))
    for _ in range(layer.inner_steps):
        agg = neighbor_sum(h, adj)
        if layer.norm:
            agg = layer.norm(agg)
        gate_in = sigmoid(add(ui, layer.in_gate_nb(agg)))
        gate_out = sigmoid(add(uo, layer.out_gate_nb(agg)))
        cand = tanh(add(uc, layer.cell_nb(agg)))
        forget_nb = layer.forget_nb(h)
        c = add(hadamard(gate_in, cand), gated_aggregate(uf_dst, forget_nb, c, adj))
        h = hadamard(gate_out, tanh(c))
    return h


def _output_and_grads(layer, run, x, adj, weights):
    x.grad = None
    for _, t in layer.named_tensors():
        t.grad = None
    with Tape() as tape:
        out = run(x, adj)
        loss = sum_all(hadamard(out, weights))
    backward(loss)
    grads = {"x": x.grad}
    grads.update((name, t.grad) for name, t in layer.named_tensors())
    return out.data, grads


def _isolate_node(graph, node):
    pairs = graph.adjacency.undirected_pairs()
    keep = (pairs[:, 0] != node) & (pairs[:, 1] != node)
    return SparseAdjacency.from_undirected(graph.n_nodes, pairs[keep])


@pytest.mark.parametrize("use_norm", [True, False])
@pytest.mark.parametrize("inner_steps", [1, 2, 3])
def test_glstm_first_step_skip_is_bit_identical(inner_steps, use_norm):
    # the skipped first-step forget term is exactly zero: output and every
    # gradient must equal the full loop's bit for bit
    adjs = [small_graph(seed).adjacency for seed in range(20, 25)]
    adjs.append(_isolate_node(small_graph(25), 3))
    assert adjs[-1].in_degree()[3] == 0
    rng = np.random.default_rng(inner_steps)
    for adj in adjs:
        layer = GlstmLayer(rng, 5, inner_steps=inner_steps, use_norm=use_norm)
        x = Tensor(rng.normal(size=(adj.n_nodes, 5)), requires_grad=True)
        weights = Tensor(rng.normal(size=(adj.n_nodes, 5)))
        out, grads = _output_and_grads(layer, layer, x, adj, weights)
        ref_out, ref_grads = _output_and_grads(
            layer, lambda x, adj: full_forget_glstm(layer, x, adj), x, adj, weights)
        assert np.array_equal(out, ref_out)
        for name, ref in ref_grads.items():
            got = grads[name]
            if got is None:
                # only a single step leaves the forget gate off the tape
                assert inner_steps == 1 and name.startswith("forget_"), name
                assert not np.any(ref), name
            else:
                assert np.array_equal(got, ref), name


def test_glstm_forget_gate_runs_from_second_step(monkeypatch):
    calls = []
    original = models.gated_aggregate

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(models, "gated_aggregate", counting)
    adj = small_graph(11).adjacency
    rng = np.random.default_rng(0)
    layer = GlstmLayer(rng, 4, inner_steps=3)
    x = Tensor(rng.normal(size=(adj.n_nodes, 4)))
    with Tape():
        layer(x, adj)
    assert len(calls) == 2


@pytest.mark.parametrize("arch, entries", [("gated_gcn", 89), ("glstm", 413)])
def test_acceptance_step_tape_length(arch, entries):
    # acceptance configuration (L=6, T=3): one tape entry per differentiable
    # op, so an op that records twice or not at all moves the count; glstm's
    # 413 is 24 fewer than with the forget gate on the first step
    config = acceptance.timing_configs()[arch]
    model = GraphModel(config, seed=1)
    inst = make_instance_fn("clustering", 0.1, 1)(derive_seed(1, "train", 0))
    with Tape() as tape:
        logits = model.forward(inst.node_features(), inst.graph.adjacency)
        weighted_loss(logits, inst.targets, config.n_classes)
    assert len(tape.ops) == entries


def test_commnet_zero_weights_yields_bias_rows():
    graph = small_graph(6)
    layer = ConvLayer(np.random.default_rng(2), 4, use_norm=False, arch="commnet")
    layer.center.weight.data[...] = 0.0
    layer.neighbor.weight.data[...] = 0.0
    x = Tensor(np.random.default_rng(1).normal(size=(graph.n_nodes, 4)))
    out = layer(x, graph.adjacency)
    expect = np.maximum(layer.center.bias.data + layer.neighbor.bias.data, 0.0)
    assert np.allclose(out.data, np.tile(expect, (graph.n_nodes, 1)))


def test_vrnn_zero_output_map_is_silent():
    graph = small_graph(7)
    layer = VrnnLayer(np.random.default_rng(3), 4, inner_steps=2, use_norm=False)
    layer.out_map.weight.data[...] = 0.0
    layer.out_map.bias.data[...] = 0.0
    x = Tensor(np.random.default_rng(1).normal(size=(graph.n_nodes, 4)))
    out = layer(x, graph.adjacency)
    assert np.array_equal(out.data, np.zeros_like(x.data))


def test_residual_wrap_and_model_flag():
    graph = small_graph(8)
    feats = np.random.default_rng(2).normal(size=(graph.n_nodes, 5))
    for residual in (True, False):
        cfg = config_for("commnet", residual=residual, use_norm=False)
        model = GraphModel(cfg, seed=5)
        for i in range(cfg.n_layers):
            for _, t in model.layers[i].named_tensors():
                t.data[...] = 0.0  # silent layers: output relu(0) = 0
        got = model.forward(feats, graph.adjacency).data
        h = model.embed(Tensor(feats)).data
        if residual:
            expect = h @ model.readout.weight.data + model.readout.bias.data
        else:
            expect = np.tile(model.readout.bias.data, (graph.n_nodes, 1))
        assert np.allclose(got, expect), residual


def test_embed_and_readout_bias_rows_on_zero_input():
    cfg = config_for("commnet")
    model = GraphModel(cfg, seed=6)
    zero = Tensor(np.zeros((4, cfg.input_dim)))
    out = model.embed(zero)
    assert np.allclose(out.data, np.tile(model.embed.bias.data, (4, 1)))


def test_checkpoint_roundtrip_exact(tmp_path):
    graph = small_graph(9)
    feats = np.random.default_rng(3).normal(size=(graph.n_nodes, 5))
    for arch in ("gated_gcn", "glstm"):
        cfg = config_for(arch)
        model = GraphModel(cfg, seed=7)
        path = tmp_path / f"{arch}.npz"
        model.save(path)
        loaded = GraphModel.load(path)
        assert loaded.config == cfg
        for (name, ta), (_, tb) in zip(model.named_tensors(),
                                       loaded.named_tensors()):
            assert np.array_equal(ta.data, tb.data), name
        a = model.forward(feats, graph.adjacency).data
        b = loaded.forward(feats, graph.adjacency).data
        assert np.array_equal(a, b)


def _saved_members(path):
    # member bytes, not file bytes: zip headers carry the write time
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def test_forward_and_backward_leave_model_unchanged(tmp_path):
    graph = small_graph(9)
    feats = np.random.default_rng(3).normal(size=(graph.n_nodes, 5))
    targets = np.arange(graph.n_nodes) % 3
    for arch in ARCHITECTURES:
        model = GraphModel(config_for(arch), seed=7)
        model.save(tmp_path / "before.npz")
        with Tape() as tape:
            loss = weighted_loss(model.forward(feats, graph.adjacency), targets, 3)
        backward(loss)
        model.save(tmp_path / "after.npz")
        assert (_saved_members(tmp_path / "before.npz")
                == _saved_members(tmp_path / "after.npz")), arch


def test_load_refuses_mismatched_checkpoint(tmp_path):
    model = GraphModel(config_for("gated_gcn"), seed=7)
    model.save(tmp_path / "good.npz")
    with np.load(tmp_path / "good.npz") as blob:
        arrays = {k: blob[k] for k in blob.files}
    norm = "layers.0.norm.gamma"

    def write(name, **changes):
        edited = {**arrays, **changes}
        edited = {k: v for k, v in edited.items() if v is not None}
        np.savez(tmp_path / name, **edited)
        return tmp_path / name

    with pytest.raises(ContractError, match="missing"):
        GraphModel.load(write("missing.npz", **{f"param:{norm}": None}))
    with pytest.raises(ContractError, match="unexpected"):
        GraphModel.load(write("extra.npz", **{"param:layers.9.norm.gamma": np.ones(6)}))
    with pytest.raises(ContractError, match="running statistics"):
        GraphModel.load(write("old.npz",
                              **{"buffer:layers.0.norm.running_mean": np.zeros(6)}))
    with pytest.raises(ContractError, match="shape"):
        GraphModel.load(write("shape.npz", **{f"param:{norm}": np.ones(7)}))

    config = json.loads(str(arrays["__config__"]))
    with pytest.raises(ContractError, match="no __config__ entry"):
        GraphModel.load(write("no-config.npz", __config__=None))
    extra = np.array(json.dumps({**config, "extra": 1}))
    with pytest.raises(ContractError, match="malformed __config__.*'extra'"):
        GraphModel.load(write("extra-field.npz", __config__=extra))
    short = np.array(json.dumps({k: v for k, v in config.items() if k != "n_classes"}))
    with pytest.raises(ContractError, match="malformed __config__.*'n_classes'"):
        GraphModel.load(write("missing-field.npz", __config__=short))


def test_recurrent_layers_run_inner_steps():
    # same weights, different inner step counts: outputs must differ
    graph = small_graph(10)
    x = Tensor(np.random.default_rng(4).normal(size=(graph.n_nodes, 4)))
    one = GgnnLayer(np.random.default_rng(5), 4, inner_steps=1, use_norm=False)
    three = GgnnLayer(np.random.default_rng(5), 4, inner_steps=3, use_norm=False)
    a = one(x, graph.adjacency).data
    b = three(x, graph.adjacency).data
    assert not np.allclose(a, b)
