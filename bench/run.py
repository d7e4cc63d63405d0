#!/usr/bin/env python3
"""graphbench performance benchmark: end-to-end and per-layer metrics.

One workload per process, driven from outside the package through its
public functions:

    python3 bench/run.py --workload train-gated-clustering --seed 2026 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer metrics from a traced run. ``--workload all``
runs every workload, each in a fresh process, prints one table and, when
traced, the criterion-8 readout. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every output check passed.
bench/README.md describes the workloads and metrics.
"""

import os
import sys

# Pinned before numpy is imported, so the caller's environment cannot
# change them: one BLAS thread, and the numpy kernel path.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["GRAPHBENCH_NUMBA"] = "0"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import KERNELS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 2026  # the acceptance protocol's master seed
HELD_OUT_SEED = 7349  # confirm claimed gains here; never tune on it

# The acceptance configuration: clustering/matching at q = 0.1, six layers,
# three inner steps, a 100K-parameter budget, residual connections.
Q_NOISE = 0.1
N_LAYERS = 6
INNER_STEPS = 3
BUDGET = 100_000

SETUP_SAMPLES = 5  # fresh processes per run; setup_s is their median
ROW_SUM_TOL = 1e-6  # solved potential rows sum to 1 within this (CG tol 1e-8)


def import_graphbench():
    """Import graphbench from this checkout's ``src``; exit if it is absent."""
    if not (SRC / "graphbench" / "__init__.py").is_file():
        sys.exit(f"run.py: no graphbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphbench

    return graphbench


def acceptance_config(gb, arch, task):
    input_dim, n_classes = gb.task_dims(task)
    hidden = gb.solve_hidden_for_budget(arch, N_LAYERS, BUDGET, input_dim, n_classes)
    return gb.ModelConfig(arch=arch, n_layers=N_LAYERS, hidden_dim=hidden,
                          input_dim=input_dim, n_classes=n_classes,
                          inner_steps=INNER_STEPS, residual=True)


def loss_sha256(losses):
    text = ",".join(f"{v:.17g}" for v in losses)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class Phase:
    """What one timed phase of a run produced."""

    def __init__(self):
        self.graph_ms = []  # wall ms of each timed graph
        self.units = 0  # train repeats or graphs run, failed ones included
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.losses = []  # quality sample: one loss per graph
        self.accuracies = []  # baseline only
        self.hashes = []

    def fail(self, count, message):
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)


# ---------------------------------------------------------------------------
# workloads


class TrainWorkload:
    """Repeated ``training.train`` runs of a fixed length on one seed.

    Every repeat trains the same model on the same graphs, so every repeat's
    loss series must hash identically (criterion 10).
    """

    def __init__(self, gb, seed, arch, iters):
        self.gb = gb
        self.seed = seed
        self.arch = arch
        self.iters = iters

    def setup(self):
        gb = self.gb
        self.config = acceptance_config(gb, self.arch, "clustering")
        # The end-of-run evaluation is kept to one graph: it is not timed, and
        # its instance generation cannot be told apart from a training
        # iteration's in the trace.
        self.settings = gb.TrainSettings(task="clustering", q_noise=Q_NOISE,
                                         n_iters=self.iters, seed=self.seed,
                                         eval_instances=1)
        # train() builds its own model and optimizer on every repeat; one is
        # built here so that set-up time covers construction.
        gb.GraphModel(self.config, seed=gb.derive_seed(self.seed, "init"))
        gb.training.make_optimizer(*gb.default_optimizer(self.arch, "clustering"))

    def run_phase(self, seconds, quality=True, units=None, min_units=2):
        """``units`` repeats, or else as many as fit in ``seconds`` (at least
        ``min_units``), judged by the length of the last one."""
        gb = self.gb
        phase = Phase()
        start = time.perf_counter()
        last = 0.0
        while True:
            if units is not None:
                if phase.units >= units:
                    break
            elif phase.units >= min_units and (
                    time.perf_counter() - start + last > seconds):
                break
            t0 = time.perf_counter()
            phase.units += 1
            phase.attempted += self.iters
            try:
                report, _ = gb.train(self.config, self.settings)
            except gb.GraphbenchError as exc:
                phase.fail(self.iters, f"repeat {phase.units}: {exc!r}")
            else:
                self.check(report, phase, quality)
            last = time.perf_counter() - t0
        return phase

    def check(self, report, phase, quality):
        phase.graph_ms.extend(np.diff(report.elapsed_ms, prepend=0.0).tolist())
        phase.hashes.append(loss_sha256(report.losses))
        if not np.isfinite(report.losses).all():
            phase.fail(self.iters, "non-finite training loss")
        elif quality and not phase.losses:
            phase.losses.extend(report.losses)


class GraphLoopWorkload:
    """One fresh graph per step: generation plus one call into the program.

    ``quality_graphs`` fixes how many graphs (the first ones, the same for a
    given seed) the loss is taken over, so that it does not depend on how
    fast the run was. A traced run passes ``quality=False`` to keep that
    cost out of the trace.
    """

    quality_graphs = 0

    def __init__(self, gb, seed):
        self.gb = gb
        self.seed = seed

    def run_phase(self, seconds, quality=True, units=None, min_units=0):
        """Graphs 0, 1, ...: ``units`` of them, or else as many as fit in
        ``seconds`` (at least ``min_units`` and the quality graphs)."""
        phase = Phase()
        quality_graphs = self.quality_graphs if quality else 0
        start = time.perf_counter()
        while True:
            if units is not None:
                if phase.units >= units:
                    break
            elif phase.units >= max(min_units, quality_graphs) and (
                    time.perf_counter() - start > seconds):
                break
            self.step(phase.units, phase, phase.units < quality_graphs)
            phase.units += 1
        return phase

    def step(self, k, phase, quality):
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            inst, out = self.graph(k)
        except self.gb.GraphbenchError as exc:
            phase.fail(1, f"graph {k}: {exc!r}")
            return
        phase.graph_ms.append((time.perf_counter() - t0) * 1000.0)
        problem = self.check(inst, out)
        if problem:
            phase.fail(1, f"graph {k}: {problem}")
        elif quality:
            self.quality(inst, out, phase)


class InferWorkload(GraphLoopWorkload):
    """Forward-only gated convnet on fresh matching graphs, no tape."""

    quality_graphs = 60

    def setup(self):
        gb = self.gb
        config = acceptance_config(gb, "gated_gcn", "matching")
        # The weights and the pattern are fixed; the seed draws the host
        # graphs. The untrained model's loss depends far more on those two
        # than on the graphs, and would otherwise swing from seed to seed.
        self.model = gb.GraphModel(config, seed=gb.derive_seed(DEFAULT_SEED, "infer-model"))
        self.pattern = gb.make_pattern(gb.derive_seed(DEFAULT_SEED, "pattern"))

    def graph(self, k):
        gb = self.gb
        inst, _ = gb.make_matching_instance(
            Q_NOISE, gb.derive_seed(self.seed, "infer", k), self.pattern)
        logits = self.model.forward(inst.node_features(), inst.graph.adjacency,
                                    training=False)
        return inst, logits

    def check(self, inst, logits):
        if logits.data.shape != (inst.graph.n_nodes, inst.n_classes):
            return f"logits shape {logits.data.shape}"
        if not np.isfinite(logits.data).all():
            return "non-finite logits"
        return None

    def quality(self, inst, logits, phase):
        phase.losses.append(
            self.gb.weighted_loss(logits, inst.targets, inst.n_classes).item())


class BaselineWorkload(GraphLoopWorkload):
    """Harmonic (Dirichlet) label propagation on fresh clustering graphs."""

    quality_graphs = 500

    def setup(self):
        pass

    def graph(self, k):
        gb = self.gb
        inst = gb.make_clustering_instance(Q_NOISE, gb.derive_seed(self.seed, "baseline", k))
        result = gb.dirichlet_assign(inst.graph, inst.seed_mask, inst.targets,
                                     n_classes=inst.n_classes)
        return inst, result

    def check(self, inst, result):
        seeds = inst.seed_mask
        if not np.array_equal(result.assignment[seeds], inst.targets[seeds]):
            return "a seed node lost its label"
        solved = ~seeds & ~result.flagged
        row_error = np.abs(result.potentials[solved].sum(axis=1) - 1.0)
        if row_error.size and not row_error.max() <= ROW_SUM_TOL:
            return f"potential rows sum to 1 only within {row_error.max():.3g}"
        return None

    def quality(self, inst, result, phase):
        # the class-weighted cross-entropy of training, on the hitting
        # probabilities (clipped away from 0 before the log)
        log_p = np.log(np.maximum(result.potentials, 1e-12))
        phase.losses.append(self.gb.weighted_loss(
            self.gb.Tensor(log_p), inst.targets, inst.n_classes).item())
        phase.accuracies.append(self.gb.accuracy(result.assignment, inst.targets))


WORKLOADS = {
    "train-gated-clustering": lambda gb, seed: TrainWorkload(gb, seed, "gated_gcn", 60),
    "train-glstm-clustering": lambda gb, seed: TrainWorkload(gb, seed, "glstm", 30),
    "infer-gated-matching": InferWorkload,
    "baseline-clustering": BaselineWorkload,
}


# ---------------------------------------------------------------------------
# measurement


def measure_setup(args):
    """Median seconds from spawning a fresh process to its finished set-up."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up process failed: {line!r}")
        samples.append(elapsed)
    return statistics.median(samples), samples


def graphs_per_s(graph_ms):
    return len(graph_ms) / (sum(graph_ms) / 1000.0)


def end_to_end(args, phase, peak_rss_mb):
    ms = np.asarray(phase.graph_ms)
    setup_s, setup_samples = measure_setup(args)
    print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in setup_samples)}")
    values = {
        "graphs_per_s": graphs_per_s(ms),
        "graph_ms_p50": float(np.percentile(ms, 50)),
        "graph_ms_p90": float(np.percentile(ms, 90)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "loss_mean": float(np.mean(phase.losses)) if phase.losses else 0.0,
        "ok_frac": (phase.attempted - phase.failed) / phase.attempted,
    }
    samples = {"graphs_per_s": ms.size, "graph_ms_p50": ms.size,
               "graph_ms_p90": ms.size, "setup_s": SETUP_SAMPLES, "peak_rss_mb": 1,
               "loss_mean": len(phase.losses), "ok_frac": phase.attempted}
    if phase.accuracies:
        print(f"baseline_acc {np.mean(phase.accuracies):.6f} (mean per-class recall, "
              f"n={len(phase.accuracies)} graphs; information, not gated)")
    return values, samples


def per_layer(untraced, traced, stats, top_level_ms):
    traced_ms = traced.graph_ms
    n = len(traced_ms)

    def total(name, key="total_ms"):
        return stats.get(name, {}).get(key, 0.0)

    values = {}
    for k in KERNELS:
        fwd, bwd = f"kernels.{k}.forward", f"kernels.{k}.backward"
        values[f"kernels.{k}.calls"] = (total(fwd, "calls") + total(bwd, "calls")) / n
        values[f"kernels.{k}.forward_ms"] = total(fwd) / n
        values[f"kernels.{k}.backward_ms"] = total(bwd) / n
        values[f"kernels.{k}.computed_mb"] = (
            total(fwd, "bytes") + total(bwd, "bytes")) / 1e6 / n
    ops = [name for name in stats if name.startswith("tensor.op.")]
    values["tensor.tape_ops"] = sum(total(op, "tape_ops") for op in ops) / n
    values["tensor.backward_ms"] = total("tensor.backward") / n
    for op in ops:
        values[f"{op}.calls"] = total(op, "calls") / n
        values[f"{op}.forward_ms"] = total(op) / n
    values["models.forward_ms"] = total("models.forward") / n
    values["models.layer_forward_ms"] = total("models.layer") / n
    instances = max(total("generators.instance", "calls"), 1)
    values["generators.instance_ms"] = total("generators.instance") / n
    values["generators.nodes"] = total("generators.instance", "nodes") / instances
    values["generators.edges"] = total("generators.instance", "edges") / instances
    values["adjacency.build_ms"] = total("adjacency.build") / n
    values["training.loss_ms"] = total("training.loss") / n
    values["training.optimizer_ms"] = total("training.optimizer") / n
    values["training.unaccounted_ms"] = float(np.mean(traced_ms)) - top_level_ms / n
    values["dirichlet.assign_ms"] = total("dirichlet.assign") / n
    values["dirichlet.laplacian_ms"] = total("dirichlet.laplacian") / n
    values["dirichlet.cg_ms"] = total("dirichlet.cg") / n
    values["dirichlet.cg_calls"] = total("dirichlet.cg", "calls") / n
    values["dirichlet.cg_iters"] = total("dirichlet.cg", "iters") / n
    values["trace_overhead_frac"] = (
        1.0 - graphs_per_s(traced_ms) / graphs_per_s(untraced.graph_ms))
    return values


# ---------------------------------------------------------------------------
# reporting


def git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(gb):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "numba_imports": numba_imports,
        "kernels_active": getattr(gb.kernels, "ACTIVE", None),
        "kernel_path": "numpy fallback (GRAPHBENCH_NUMBA=0 is pinned); "
                       "every number here comes from it",
        "git_commit": git_commit(),
    }


def emit(result_values, samples, section, correct, attempted, failed):
    """Print the metrics table and, last, the one-line JSON result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        value = float(result_values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": entry["unit"]}
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"{name:<44} {value:>14.6g} {entry['unit']:<6} "
              f"({entry['better']} is better){count}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_one(args):
    gb = import_graphbench()
    workload = WORKLOADS[args.workload](gb, args.seed)
    workload.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    if args.trace:
        untraced = workload.run_phase(args.seconds / 2, quality=False, min_units=1)
        tracer = Tracer()
        tracer.install(gb)
        try:
            traced = workload.run_phase(args.seconds / 2, quality=False,
                                        units=untraced.units)
        finally:
            tracer.uninstall()
        phases = (untraced, traced)
        stats, top_level_ms = tracer.summary()
        values = per_layer(untraced, traced, stats, top_level_ms)
        samples = {}
    else:
        phase = workload.run_phase(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases = (phase,)
        values, samples = end_to_end(args, phase, peak_rss_mb)

    hashes = sorted({h for p in phases for h in p.hashes})
    errors = [e for p in phases for e in p.errors]
    if len(hashes) > 1:
        errors.append("loss series hash differs between repeats")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = not errors and failed == 0

    env = environment(gb)
    print("env " + json.dumps(env, sort_keys=True))
    if hashes:
        print(f"loss_sha256 {' '.join(hashes)} "
              f"(repeats: {sum(len(p.hashes) for p in phases)})")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    if args.trace:
        traced_ms = np.asarray(traced.graph_ms)
        print(f"traced graphs: {traced_ms.size}; mean graph {traced_ms.mean():.3f} ms, "
              f"median {np.median(traced_ms):.3f} ms; top-level spans cover "
              f"{top_level_ms / traced_ms.size / traced_ms.mean():.1%} of the mean")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "environment": env, "metrics": values,
                                   "spans": stats}, indent=1, sort_keys=True) + "\n")
        print(f"span summary written to {out.relative_to(ROOT)}")
    emit(values, samples, "per_layer" if args.trace else "end_to_end",
         correct, attempted, failed)
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process; one table; the criterion-8 readout."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = None
    if args.trace:
        print_criterion8(results)
    print(json.dumps(results))
    return status


def print_criterion8(results):
    """glstm/gated ratio of forward + backward time, beside timing.json's."""

    def model_ms(name):
        metrics = (results.get(name) or {}).get("metrics", {})
        return (metrics.get("models.forward_ms", {}).get("value", 0.0)
                + metrics.get("tensor.backward_ms", {}).get("value", 0.0))

    gated, glstm = model_ms("train-gated-clustering"), model_ms("train-glstm-clustering")
    if not gated:
        return
    line = (f"criterion 8 (information): glstm/gated forward+backward "
            f"{glstm:.2f} / {gated:.2f} ms = {glstm / gated:.2f}x")
    timing = ROOT / "results" / "acceptance" / "timing.json"
    if timing.is_file():
        record = json.loads(timing.read_text())
        ratio = record["glstm"]["batch_time_ms"] / record["gated_gcn"]["batch_time_ms"]
        line += f"; results/acceptance/timing.json has {ratio:.2f}x"
    print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed for confirming claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
