"""The shipped acceptance protocol: long-running benchmark configurations.

The heavy acceptance checks (multi-trial 5000-iteration training runs,
batch timing) take hours on one core, so every result is a record of the
one resumable store, ``training.stored_json``, under ``results/acceptance``
(override with GRAPHBENCH_ACCEPTANCE_DIR), and the test suite reads the
cached records. Running this module as a script computes everything that
is missing and touches nothing that is already done:

    python3 -m graphbench.acceptance
"""

import os

from .experiments import (
    TIMING_GRAPHS,
    ExperimentSpec,
    batch_timer,
    run_dirichlet_baseline,
    run_experiment,
    time_batches,
)
from .seeding import derive_seed
from .training import model_config, stored_json

MASTER_SEED = 2026
BUDGET = 100_000


def results_dir():
    return os.environ.get("GRAPHBENCH_ACCEPTANCE_DIR",
                          os.path.join("results", "acceptance"))


def residual_clustering_spec():
    """Residual gated convnet, L=6, 100K params, clustering."""
    return ExperimentSpec(
        name="accept-resgated-clustering", sweep="budget", task="clustering",
        archs=("gated_gcn",), values=(BUDGET,), trials=5, seed=MASTER_SEED,
        n_iters=5000, eval_instances=100, q_noise=0.1, n_layers=6,
        inner_steps=3, residual=True, time_batches=False)


def plain_clustering_spec():
    """Same configuration without the identity skip connections."""
    return ExperimentSpec(
        name="accept-plaingated-clustering", sweep="budget", task="clustering",
        archs=("gated_gcn",), values=(BUDGET,), trials=5, seed=MASTER_SEED,
        n_iters=5000, eval_instances=100, q_noise=0.1, n_layers=6,
        inner_steps=3, residual=False, time_batches=False)


def depth_spec(task):
    """Residual gated convnet over depths 1/2/4/6 at fixed width 50."""
    return ExperimentSpec(
        name=f"accept-depth-{task}", sweep="layers", task=task,
        archs=("gated_gcn",), values=(1, 2, 4, 6), trials=3, seed=MASTER_SEED,
        n_iters=5000, eval_instances=100, q_noise=0.1, hidden_dim=50,
        inner_steps=3, residual=True, time_batches=False)


def glstm_depth_spec():
    """Graph LSTM at depths 6 and 10, fixed width 50, clustering."""
    return ExperimentSpec(
        name="accept-glstm-depth", sweep="layers", task="clustering",
        archs=("glstm",), values=(6, 10), trials=3, seed=MASTER_SEED,
        n_iters=5000, eval_instances=100, q_noise=0.1, hidden_dim=50,
        inner_steps=3, residual=True, time_batches=False)


def timing_configs():
    """Both timing contenders at equal budget: L=6, T=3, 100K params."""
    return {arch: model_config(arch, "clustering", 6, budget=BUDGET, inner_steps=3)
            for arch in ("gated_gcn", "glstm")}


def measure_timing():
    """Median of three interleaved batch timings of each timing contender."""
    configs = timing_configs()
    timings = time_batches({arch: batch_timer(config, "clustering", 0.1,
                                              seed=derive_seed(MASTER_SEED, "timing", arch))
                            for arch, config in configs.items()})
    record = {"schema": "graphbench-acceptance-timing v1", "n_graphs": TIMING_GRAPHS}
    for arch, config in configs.items():
        record[arch] = {**timings[arch], "hidden_dim": config.hidden_dim}
    return record


def ensure_timing(base):
    return stored_json(os.path.join(base, "timing.json"), measure_timing)


def ensure_dirichlet(base):
    return stored_json(os.path.join(base, "dirichlet.json"),
                       lambda: run_dirichlet_baseline(0.1, 100, seed=MASTER_SEED))


def ensure_all(workers=1):
    """Compute every missing acceptance artifact; finished ones are reused."""
    base = results_dir()
    os.makedirs(base, exist_ok=True)
    print(f"acceptance results dir: {base}")
    ensure_dirichlet(base)
    print("dirichlet baseline done")
    jobs = [
        ("resgated", residual_clustering_spec()),
        ("plaingated", plain_clustering_spec()),
        ("depth-clustering", depth_spec("clustering")),
        ("depth-matching", depth_spec("matching")),
        ("glstm-depth", glstm_depth_spec()),
    ]
    for label, spec in jobs:
        out = os.path.join(base, label)
        summary = run_experiment(spec, out, workers=workers)
        for g in summary["groups"]:
            print(f"{label}: {g['architecture']} value={g['sweep_value']} "
                  f"acc {g['accuracy_mean']:.4f} +- {g['accuracy_std']:.4f}")
    ensure_timing(base)
    print("batch timing done")
    print("acceptance artifacts complete")


if __name__ == "__main__":
    ensure_all(workers=int(os.environ.get("GRAPHBENCH_WORKERS", "1")))
