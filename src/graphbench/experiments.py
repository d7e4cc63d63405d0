"""Sweep orchestration: many training runs, one results table.

An experiment is a grid of cells (architecture x sweep value x trial).
``spec.json``, each finished cell and each batch timing are records of
``training.stored_json`` under ``<out>``; a cell or timing carries the
spec's hash and is refused in any other spec's directory. An interrupted
sweep resumes where it stopped, and a repeated run with the same master
seed re-renders every output file byte-for-byte from the stored records
(wall-clock numbers are measured once and cached, never re-measured).

Sweep kinds:

    noise           vary inter-community edge probability q
    layers          vary depth L
    budget          vary the parameter budget (width solved per cell)
    inner_steps     vary recurrent steps T inside each layer
    learning_speed  single configuration, record accuracy-vs-time curves

Outputs: ``results.csv`` (architecture, sweep_value, accuracy_mean,
accuracy_std, batch_time_ms), ``summary.json`` (aggregates plus every cell
record with its seed), and for learning_speed sweeps ``learning_speed.csv``.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dirichlet import dirichlet_assign
from .errors import BudgetError, ContractError, SolverError, TrainingDivergedError
from .generators import make_clustering_instance
from .models import GraphModel
from .seeding import derive_seed
from .training import (
    TrainSettings,
    accuracy,
    backprop,
    check_run_counts,
    make_instance_fn,
    model_config,
    record_key,
    stored_json,
    train,
    write_json,
    write_text,
)

SWEEP_KINDS = ("noise", "layers", "budget", "inner_steps", "learning_speed")
TIMING_GRAPHS = 100
TIMING_REPEATS = 3


@dataclass
class ExperimentSpec:
    name: str
    sweep: str
    task: str
    archs: tuple
    values: tuple
    trials: int = 5
    seed: int = 0
    n_iters: int = 5000
    eval_instances: int = 100
    q_noise: float = 0.1
    budget: int = None
    hidden_dim: int = None
    n_layers: int = 6
    inner_steps: int = 3
    residual: bool = True
    use_norm: bool = True
    optimizer: str = "auto"
    learning_rate: float = None
    curve_every: int = 250
    curve_instances: int = 20
    time_batches: bool = True

    def __post_init__(self):
        object.__setattr__(self, "archs", tuple(self.archs))
        object.__setattr__(self, "values", tuple(self.values))
        validate_spec(self)

    def canonical_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    def spec_hash(self):
        return record_key(asdict(self))


def validate_spec(spec):
    """Check the grid, then resolve one cell per (arch, value), so every value
    is checked where it is used before anything is written; a budget too
    small to fit stays a per-cell error record."""
    if spec.sweep not in SWEEP_KINDS:
        raise ContractError(f"unknown sweep kind {spec.sweep!r}")
    if not spec.archs:
        raise ContractError("at least one architecture is required")
    if not spec.values:
        raise ContractError("at least one sweep value is required")
    if not isinstance(spec.trials, int) or spec.trials < 1:
        raise ContractError(f"trials must be >= 1 and an int, got {spec.trials!r}")
    if spec.sweep == "budget" and spec.hidden_dim is not None:
        raise ContractError("budget sweeps solve the width; drop hidden_dim")
    # only learning_speed cells pass the curve fields on to TrainSettings
    check_run_counts(spec.n_iters, spec.eval_instances, spec.curve_every,
                     spec.curve_instances)
    for arch in spec.archs:
        for value in spec.values:
            try:
                resolve_cell(spec, arch, value, 0)
            except BudgetError:
                pass


def resolve_cell(spec, arch, value, trial):
    """(ModelConfig, TrainSettings) for one grid cell; the settings come first,
    so a budget too small to fit cannot hide a malformed setting."""
    q = float(value) if spec.sweep == "noise" else spec.q_noise
    settings = TrainSettings(
        task=spec.task, q_noise=q, n_iters=spec.n_iters,
        optimizer=spec.optimizer, learning_rate=spec.learning_rate,
        seed=derive_seed(spec.seed, spec.name, arch, value, trial),
        eval_instances=spec.eval_instances,
        curve_every=spec.curve_every if spec.sweep == "learning_speed" else 0,
        curve_instances=spec.curve_instances)
    if spec.sweep in ("layers", "inner_steps", "budget") and not float(value).is_integer():
        raise ContractError(f"{spec.sweep} values must be whole numbers, got {value!r}")
    n_layers, inner, budget = spec.n_layers, spec.inner_steps, spec.budget
    if spec.sweep == "layers":
        n_layers = int(value)
    elif spec.sweep == "inner_steps":
        inner = int(value)
    elif spec.sweep == "budget":
        budget = int(value)
    config = model_config(arch, spec.task, n_layers, spec.hidden_dim, budget,
                          inner, spec.residual, spec.use_norm)
    return config, settings


def run_single_cell(spec, arch, value, trial):
    """Train one cell and summarize it; failures become error records."""
    base = {
        "schema": "graphbench-cell v1",
        "spec_hash": spec.spec_hash(),
        "arch": arch,
        "sweep_value": value,
        "trial": trial,
    }
    try:
        config, settings = resolve_cell(spec, arch, value, trial)
    except BudgetError as exc:
        base.update({"error": f"BudgetError: {exc}", "seed": None})
        return base
    base["seed"] = settings.seed
    base["model"] = asdict(config)
    try:
        report, _ = train(config, settings)
    except (TrainingDivergedError, SolverError) as exc:
        base.update({"error": f"{type(exc).__name__}: {exc}"})
        return base
    base.update({
        "error": None,
        "optimizer": report.optimizer_kind,
        "initial_lr": report.initial_lr,
        "final_accuracy": report.final_accuracy,
        "final_accuracy_std_instances": report.final_accuracy_std,
        "eval_accuracies": report.eval_accuracies,
        "decay_events": [list(e) for e in report.decay_events],
        "time_per_100_iters_ms": report.time_per_100_iters_ms(),
        "final_rolling_loss": report.rolling_losses()[-1],
        "accuracy_curve": [list(e) for e in report.accuracy_curve],
    })
    return base


def batch_timer(config, task, q_noise, seed):
    """A function that times ``training.backprop`` over a fixed batch.

    TIMING_GRAPHS instances are generated up front and passed through the
    model once untimed, which builds each graph's cached sparse operators;
    each call then returns the wall time (ms) of model compute alone, which
    is what distinguishes the architectures.
    """
    instance_fn = make_instance_fn(task, q_noise, derive_seed(seed, "timing-data"))
    instances = [instance_fn(derive_seed(seed, "timing", k)) for k in range(TIMING_GRAPHS)]
    model = GraphModel(config, seed=derive_seed(seed, "timing-init"))

    def run():
        t0 = time.perf_counter()
        for inst in instances:
            backprop(model, inst)
        return (time.perf_counter() - t0) * 1000.0

    run()
    return run


def time_batches(timers):
    """Median and repeats (ms) of each of ``timers``, ``{name: run}`` as
    ``batch_timer`` returns them.

    Each of TIMING_REPEATS rounds calls every timer once, in the given
    order, so a swing in host speed lands on every contender alike.
    """
    repeat_ms = {name: [] for name in timers}
    for _ in range(TIMING_REPEATS):
        for name, run in timers.items():
            repeat_ms[name].append(run())
    return {name: {"batch_time_ms": float(np.median(ms)), "repeat_ms": ms}
            for name, ms in repeat_ms.items()}


# ---------------------------------------------------------------------------
# the resumable store

def _value_token(value):
    return str(value).replace(".", "p").replace("-", "m")


def _cell_path(out_dir, arch, value, trial):
    return os.path.join(out_dir, "cells", f"{arch}-v{_value_token(value)}-t{trial}.json")


def _timing_path(out_dir, arch, value):
    return os.path.join(out_dir, "cells", f"time-{arch}-v{_value_token(value)}.json")


def _timing_record(spec, arch, value):
    """Batch timing of one (architecture, sweep value) group, or its error."""
    rec = {
        "schema": "graphbench-timing v1",
        "spec_hash": spec.spec_hash(),
        "arch": arch,
        "sweep_value": value,
    }
    try:
        config, settings = resolve_cell(spec, arch, value, 0)
    except BudgetError as exc:
        rec["error"] = f"BudgetError: {exc}"
        return rec
    run = batch_timer(config, spec.task, settings.q_noise,
                      seed=derive_seed(spec.seed, spec.name, "timing", arch, value))
    rec.update(time_batches({arch: run})[arch], n_graphs=TIMING_GRAPHS, error=None)
    return rec


def run_experiment(spec: ExperimentSpec, out_dir, workers=1):
    """Run (or resume) every cell, then render the output files.

    Returns the summary dict that is also written to summary.json.
    """
    os.makedirs(os.path.join(out_dir, "cells"), exist_ok=True)
    spec_record = json.loads(spec.canonical_json())
    if stored_json(os.path.join(out_dir, "spec.json"), lambda: spec_record) != spec_record:
        raise ContractError(
            f"{out_dir} already holds a different experiment; use a fresh dir")

    ours = ("spec_hash", spec.spec_hash())
    grid = [(arch, value, trial)
            for arch in spec.archs
            for value in spec.values
            for trial in range(spec.trials)]
    pending = [cell for cell in grid if not os.path.exists(_cell_path(out_dir, *cell))]
    pool = ProcessPoolExecutor(max_workers=workers) if pending and workers > 1 else None
    # yields the pending cells' records in grid order, as stored_json asks for them
    records = (pool.map if pool else map)(
        run_single_cell, [spec] * len(pending), *zip(*pending))
    try:
        cells = {cell: stored_json(_cell_path(out_dir, *cell), lambda: next(records), ours)
                 for cell in grid}
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)

    timings = {}
    if spec.time_batches:
        timings = {(a, v): stored_json(_timing_path(out_dir, a, v),
                                       lambda: _timing_record(spec, a, v), ours)
                   for a in spec.archs for v in spec.values}

    summary = _summarize(spec, cells, timings)
    write_json(os.path.join(out_dir, "summary.json"), summary)
    _write_results_csv(summary, os.path.join(out_dir, "results.csv"))
    if spec.sweep == "learning_speed":
        _write_curves_csv(spec, cells, os.path.join(out_dir, "learning_speed.csv"))
    return summary


def _summarize(spec, cells, timings):
    groups = []
    for arch in spec.archs:
        for value in spec.values:
            recs = [cells[(arch, value, t)] for t in range(spec.trials)]
            ok = [r for r in recs if r.get("error") is None]
            accs = [r["final_accuracy"] for r in ok]
            timing = timings.get((arch, value), {})
            groups.append({
                "architecture": arch,
                "sweep_value": value,
                "n_trials_ok": len(ok),
                "accuracy_mean": float(np.mean(accs)) if accs else float("nan"),
                "accuracy_std": float(np.std(accs)) if accs else float("nan"),
                "batch_time_ms": timing.get("batch_time_ms", float("nan")),
                "trial_seeds": [r.get("seed") for r in recs],
                "errors": [r["error"] for r in recs if r.get("error")],
            })
    ordered_cells = [cells[(a, v, t)]
                     for a in spec.archs for v in spec.values
                     for t in range(spec.trials)]
    return {
        "schema": "graphbench-experiment v1",
        "spec": json.loads(spec.canonical_json()),
        "spec_hash": spec.spec_hash(),
        "groups": groups,
        "cells": ordered_cells,
    }


def _fmt_float(x, digits=6):
    if isinstance(x, float) and not np.isfinite(x):
        return "nan"
    return f"{x:.{digits}f}"


def _write_results_csv(summary, path):
    lines = ["# graphbench results v1",
             "architecture,sweep_value,accuracy_mean,accuracy_std,batch_time_ms"]
    for g in summary["groups"]:
        lines.append(
            f"{g['architecture']},{g['sweep_value']},"
            f"{_fmt_float(g['accuracy_mean'])},{_fmt_float(g['accuracy_std'])},"
            f"{_fmt_float(g['batch_time_ms'], 3)}")
    write_text(path, "\n".join(lines) + "\n")


def _write_curves_csv(spec, cells, path):
    lines = ["# graphbench learning curve v1",
             "architecture,trial,seconds,accuracy"]
    for arch in spec.archs:
        for value in spec.values:
            for t in range(spec.trials):
                rec = cells[(arch, value, t)]
                if rec.get("error") is not None:
                    continue
                for seconds, acc in rec.get("accuracy_curve", []):
                    lines.append(f"{arch},{t},{seconds:.3f},{acc:.6f}")
    write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# spec files

_KEY_TYPES = {f.name: f.type for f in fields(ExperimentSpec)}


def _convert(kinds, token, key, lineno):
    """token as the first of ``kinds`` that accepts it, else a ContractError."""
    for kind in kinds:
        try:
            return kind(token)
        except ValueError:
            pass
    names = " or ".join(kind.__name__ for kind in kinds)
    raise ContractError(f"line {lineno}: {key} expects {names}, got {token!r}")


def parse_experiment_text(text):
    """key=value experiment format; '#' starts a comment, lists are comma-split."""
    spec = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in spec:
            raise ContractError(f"line {lineno}: duplicate key {key!r}")
        kind = _KEY_TYPES.get(key)
        if key == "archs":
            spec[key] = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key == "values":
            spec[key] = tuple(_convert((int, float), v.strip(), key, lineno)
                              for v in value.split(",") if v.strip())
        elif kind is None:
            raise ContractError(f"line {lineno}: unknown key {key!r}")
        elif kind is bool:
            if value not in ("true", "false"):
                raise ContractError(f"line {lineno}: {key} must be true or false")
            spec[key] = value == "true"
        else:
            # int, float or str, as ExperimentSpec declares
            spec[key] = _convert((kind,), value, key, lineno)
    if spec.get("sweep") == "learning_speed" and "values" not in spec:
        spec["values"] = (0,)
    missing = {"name", "sweep", "task", "archs", "values"} - set(spec)
    if missing:
        raise ContractError(f"missing required keys: {sorted(missing)}")
    return ExperimentSpec(**spec)


def parse_experiment_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_experiment_text(fh.read())


# ---------------------------------------------------------------------------
# the non-learned baseline

def run_dirichlet_baseline(q_noise, n_instances, seed):
    """Mean accuracy of harmonic label propagation on fresh clustering graphs."""
    if n_instances < 1:
        raise ContractError("n_instances must be >= 1")
    accs = []
    flagged_total = 0
    for k in range(n_instances):
        inst = make_clustering_instance(q_noise, derive_seed(seed, "dirichlet", k))
        res = dirichlet_assign(inst.graph, inst.seed_mask, inst.targets,
                               n_classes=inst.n_classes)
        accs.append(accuracy(res.assignment, inst.targets))
        flagged_total += int(res.flagged.sum())
    return {
        "schema": "graphbench-dirichlet v1",
        "q_noise": q_noise,
        "n_instances": n_instances,
        "seed": seed,
        "accuracy_mean": float(np.mean(accs)),
        "accuracy_std": float(np.std(accs)),
        "accuracies": accs,
        "flagged_nodes_total": flagged_total,
    }
