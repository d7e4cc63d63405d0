"""The shipped acceptance suite: ten checks, one test each.

Checks 4 through 8 depend on multi-hour training artifacts kept in the
resumable store under results/acceptance (see graphbench.acceptance).
Run ``python3 -m graphbench.acceptance`` first; anything missing when the
tests run is computed on the spot, which takes hours on one core.
"""

import os
import time

import numpy as np

from graphbench import acceptance
from graphbench.adjacency import SparseAdjacency
from graphbench.cli import main as cli_main
from graphbench.experiments import ExperimentSpec, run_experiment
from graphbench.generators import SbmParams, sbm_generate
from graphbench.gradcheck import run_all as run_gradient_checks
from graphbench.models import (
    ARCHITECTURES,
    ConvLayer,
    GraphModel,
    ModelConfig,
    count_params,
    solve_hidden_for_budget,
)
from graphbench.tensor import Tensor, gated_aggregate, neighbor_sum
from graphbench.training import task_dims

BAND = 0.02  # accuracy slack for the depth-trend checks, in absolute points


def _verdict(n, ok, detail):
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n:02d}: {detail}"


def _group_means(label, spec):
    """value -> mean accuracy from the cached experiment, keyed by sweep value."""
    summary = run_experiment(spec, os.path.join(acceptance.results_dir(), label))
    out = {}
    for g in summary["groups"]:
        assert not g["errors"], f"{label}: {g['errors']}"
        out[g["sweep_value"]] = g["accuracy_mean"]
    return out


def _random_small_graph(rng):
    n_blocks = int(rng.integers(2, 5))
    sizes = tuple(int(rng.integers(3, 7)) for _ in range(n_blocks))
    while sum(sizes) > 20:
        sizes = sizes[:-1]
    params = SbmParams(0.5, 0.25, sizes)
    return sbm_generate(params, int(rng.integers(1 << 30)))


def test_criterion_01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    results = run_gradient_checks(seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed and r.tol <= 1e-4 for r in results) and elapsed < 60.0
    _verdict(1, ok, f"{len(results)} checks, worst rel err {worst:.3e}, "
                    f"{elapsed:.1f}s (limit 60s, tol 1e-4, step 1e-5)")


def test_criterion_02_sparse_aggregation_is_exact():
    rng = np.random.default_rng(202)
    gated = ConvLayer(np.random.default_rng(1), 8, use_norm=True)
    plain = ConvLayer(np.random.default_rng(2), 8, use_norm=True, arch="commnet")
    plain.center.weight.data = gated.center.weight.data.copy()
    plain.center.bias.data = gated.center.bias.data.copy()
    plain.neighbor.weight.data = gated.neighbor.weight.data.copy()
    plain.neighbor.bias.data = gated.neighbor.bias.data.copy()
    plain.norm.gamma.data = gated.norm.gamma.data.copy()
    plain.norm.beta.data = gated.norm.beta.data.copy()
    # sigmoid(+inf) is exactly 1.0: every gate of the gated layer is open
    gated.gate_center.bias.data[:] = np.inf

    checked = 0
    for _ in range(200):
        graph = _random_small_graph(rng)
        adj = graph.adjacency
        dense = adj.to_dense()
        # integer-valued features make sparse and dense sums exact
        h_int = Tensor(rng.integers(-4, 5, size=(graph.n_nodes, 8)).astype(float))
        agg = neighbor_sum(h_int, adj)
        assert np.array_equal(agg.data, dense @ h_int.data)
        open_gates = Tensor(np.full((adj.n_edges, 8), np.inf))
        zero = Tensor(np.zeros((graph.n_nodes, 8)))
        assert np.array_equal(gated_aggregate(open_gates, zero, h_int, adj).data, agg.data)
        # unit gates collapse the gated layer onto the plain one bit-for-bit
        h = Tensor(rng.normal(size=(graph.n_nodes, 8)))
        out_gated = gated(h, adj)
        out_plain = plain(h, adj)
        assert np.array_equal(out_gated.data, out_plain.data)
        assert graph.n_nodes <= 20
        checked += 1
    _verdict(2, checked == 200,
             f"{checked} graphs <=20 nodes, sparse==dense and unit-gate "
             f"reduction bit-for-bit")


def test_criterion_03_permutation_equivariance():
    rng = np.random.default_rng(3)
    worst = 0.0
    for arch in ARCHITECTURES:
        cfg = ModelConfig(arch=arch, n_layers=2, hidden_dim=6, input_dim=5,
                          n_classes=3, inner_steps=2)
        model = GraphModel(cfg, seed=33)
        for trial in range(2):
            graph = sbm_generate(SbmParams(0.6, 0.3, (5, 5, 5)),
                                 int(rng.integers(1 << 30)))
            feats = rng.normal(size=(graph.n_nodes, 5))
            perm = rng.permutation(graph.n_nodes)
            pos = np.argsort(perm)
            pairs = graph.adjacency.undirected_pairs()
            new_pairs = np.sort(np.column_stack((pos[pairs[:, 0]],
                                                 pos[pairs[:, 1]])), axis=1)
            adj_p = SparseAdjacency.from_undirected(graph.n_nodes, new_pairs)
            base = model.forward(feats, graph.adjacency).data
            permuted = model.forward(feats[perm], adj_p).data
            worst = max(worst, float(np.abs(permuted - base[perm]).max()))
    _verdict(3, worst < 1e-10,
             f"all {len(ARCHITECTURES)} architectures, max deviation "
             f"{worst:.3e} (tol 1e-10)")


def test_criterion_04_harmonic_baseline_accuracy_band():
    record = acceptance.ensure_dirichlet(acceptance.results_dir())
    mean = record["accuracy_mean"]
    ok = 0.40 <= mean <= 0.51 and record["n_instances"] == 100
    _verdict(4, ok, f"mean accuracy {mean:.4f} over 100 instances at q=0.1 "
                    f"(required band [0.40, 0.51])")


def test_criterion_05_residual_gated_clustering_accuracy():
    means = _group_means("resgated", acceptance.residual_clustering_spec())
    mean = means[acceptance.BUDGET]
    _verdict(5, mean >= 0.70,
             f"residual gated convnet L=6 at 100K params: {mean:.4f} "
             f"mean over 5 trials (required >= 0.70)")


def test_criterion_06_residual_beats_plain_by_five_points():
    res = _group_means("resgated", acceptance.residual_clustering_spec())
    plain = _group_means("plaingated", acceptance.plain_clustering_spec())
    gap = res[acceptance.BUDGET] - plain[acceptance.BUDGET]
    _verdict(6, gap >= 0.05,
             f"residual {res[acceptance.BUDGET]:.4f} vs plain "
             f"{plain[acceptance.BUDGET]:.4f}: gap {gap:+.4f} "
             f"(required >= +0.05)")


def test_criterion_07_depth_helps_gated_but_not_glstm():
    problems = []
    for task in ("clustering", "matching"):
        means = _group_means(f"depth-{task}", acceptance.depth_spec(task))
        for lo, hi in ((1, 2), (2, 4), (4, 6)):
            if means[hi] < means[lo] - BAND:
                problems.append(f"gated {task}: L={hi} {means[hi]:.4f} < "
                                f"L={lo} {means[lo]:.4f} - {BAND}")
    glstm = _group_means("glstm-depth", acceptance.glstm_depth_spec())
    if glstm[10] > glstm[6] + BAND:
        problems.append(f"glstm: L=10 {glstm[10]:.4f} improves on "
                        f"L=6 {glstm[6]:.4f} beyond the band")
    _verdict(7, not problems,
             "; ".join(problems) if problems else
             "gated accuracy non-decreasing in depth on both tasks within "
             f"{BAND} band; glstm gains nothing from L=10 over L=6")


def test_criterion_08_gated_trains_faster_than_glstm():
    record = acceptance.ensure_timing(acceptance.results_dir())
    gated = record["gated_gcn"]["batch_time_ms"]
    glstm = record["glstm"]["batch_time_ms"]
    ratio = glstm / gated
    _verdict(8, ratio >= 1.3,
             f"100-graph batch at 100K params, L=6, T=3: gated {gated:.0f}ms "
             f"vs glstm {glstm:.0f}ms, speedup {ratio:.2f}x (required >= 1.3x)")


def test_criterion_09_budget_solver_is_tight():
    checked = 0
    for arch in ARCHITECTURES:
        for budget in (25_000, 50_000, 75_000, 100_000, 150_000):
            for task in ("matching", "clustering"):
                input_dim, n_classes = task_dims(task)
                h = solve_hidden_for_budget(arch, 6, budget, input_dim, n_classes)
                mk = lambda width: ModelConfig(
                    arch=arch, n_layers=6, hidden_dim=width, input_dim=input_dim,
                    n_classes=n_classes, inner_steps=3)
                assert count_params(mk(h)) <= budget < count_params(mk(h + 1)), \
                    (arch, budget, task)
                checked += 1
    _verdict(9, checked == 60,
             f"{checked} (architecture, budget, task) cells: widest width "
             f"fitting the budget in every case")


def test_criterion_10_same_seed_reproduces_outputs_exactly(tmp_path):
    spec = ExperimentSpec(
        name="accept-repro", sweep="layers", task="matching",
        archs=("commnet",), values=(1,), trials=2, seed=acceptance.MASTER_SEED,
        n_iters=15, eval_instances=3, hidden_dim=8, inner_steps=2,
        time_batches=False)
    d1, d2 = tmp_path / "first", tmp_path / "second"
    run_experiment(spec, d1)
    run_experiment(spec, d2)
    fresh_equal = (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()
    before = (d1 / "results.csv").read_bytes(), (d1 / "summary.json").read_bytes()
    run_experiment(spec, d1)
    rerun_equal = before == ((d1 / "results.csv").read_bytes(),
                             (d1 / "summary.json").read_bytes())

    train_dir = tmp_path / "train"
    argv = ["train", "--arch", "commnet", "--task", "matching", "--layers", "1",
            "--hidden", "8", "--inner-steps", "2", "--iters", "10",
            "--eval-instances", "2", "--seed", str(acceptance.MASTER_SEED),
            "--out", str(train_dir)]
    assert cli_main(argv) == 0
    series = (train_dir / "series.csv").read_bytes()
    summary = (train_dir / "summary.json").read_bytes()
    assert cli_main(argv) == 0
    train_equal = (series == (train_dir / "series.csv").read_bytes()
                   and summary == (train_dir / "summary.json").read_bytes())

    _verdict(10, fresh_equal and rerun_equal and train_equal,
             "sweep results identical across fresh directories, sweep and "
             "train reruns render byte-identical files")
