"""Single-run training loop and its reporting.

One fresh task instance is generated per iteration (batch size is one
graph), ``backprop`` takes the one training step on it (the weighted
cross-entropy, backpropagated), and the optimizer steps. Learning-rate
decay is plateau-based: mean loss over consecutive non-overlapping
100-iteration blocks must keep strictly decreasing, otherwise the rate is
divided by 1.25 (with a 200-iteration cooldown after each decay and a
floor of 1e-6).

Wall-clock numbers are measured once and carried inside the TrainReport;
everything written to disk is rendered from the report, so a report
reloaded from JSON reproduces its CSV and summary byte-for-byte.

``model_config`` is the one resolver of a run's model shape, and
``stored_json`` the one store of every cached run record: it loads a JSON
record, or computes it and writes it atomically first.
"""

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ContractError, TrainingDivergedError
from .generators import (
    TASK_CLUSTERING,
    TASK_DIMS,
    TASK_MATCHING,
    check_probability,
    make_clustering_instance,
    make_matching_instance,
    make_pattern,
)
from .models import GraphModel, ModelConfig, solve_hidden_for_budget
from .seeding import derive_seed
from .tensor import backward, softmax_cross_entropy, Tape

ADAM_DEFAULT_LR = 0.00075
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GLSTM_SGD_LR = {TASK_MATCHING: 0.075, TASK_CLUSTERING: 0.0075}

# the plateau schedule's block, the timed block and the rolling-loss window
LOSS_BLOCK_ITERS = 100
LR_DECAY_FACTOR = 1.25
MIN_LR = 1e-6


def task_dims(task):
    """(input_dim, n_classes) for a task name."""
    if task not in TASK_DIMS:
        raise ContractError(f"unknown task {task!r}")
    return TASK_DIMS[task]


def model_config(arch, task, n_layers, hidden_dim=None, budget=None,
                 inner_steps=3, residual=True, use_norm=True):
    """The ModelConfig of one run on ``task``: ``hidden_dim`` or, never with
    it, the largest width that fits ``budget``. Every field is checked before
    a budget is solved, so only a budget too small to fit raises BudgetError.
    """
    if (hidden_dim is None) == (budget is None):
        raise ContractError("set hidden_dim or budget, not both")
    input_dim, n_classes = task_dims(task)
    config = ModelConfig(arch, n_layers, 1 if hidden_dim is None else hidden_dim,
                         input_dim, n_classes, inner_steps, residual, use_norm)
    if hidden_dim is None:
        config = replace(config, hidden_dim=solve_hidden_for_budget(
            arch, n_layers, budget, input_dim, n_classes, use_norm))
    return config


def default_optimizer(arch, task):
    """Per-architecture training defaults: SGD for glstm, Adam otherwise."""
    kind = "sgd" if arch == "glstm" else "adam"
    return kind, default_lr(kind, task)


def default_lr(kind, task):
    """Initial rate of an optimizer given none: the glstm SGD rate, or Adam's."""
    return GLSTM_SGD_LR[task] if kind == "sgd" else ADAM_DEFAULT_LR


class Sgd:
    kind = "sgd"

    def __init__(self, lr):
        self.lr = float(lr)

    def step(self, params):
        for _, p in params.items():
            if p.grad is None:
                continue
            p.data -= self.lr * p.grad


class Adam:
    kind = "adam"

    def __init__(self, lr):
        self.lr = float(lr)
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params):
        self.t += 1
        correct1 = 1.0 - ADAM_BETA1 ** self.t
        correct2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in params.items():
            if p.grad is None:
                continue
            g = p.grad
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


OPTIMIZERS = {"adam": Adam, "sgd": Sgd}
OPTIMIZER_CHOICES = ("auto", *OPTIMIZERS)  # "auto": default_optimizer's pick


def make_optimizer(kind, lr):
    if kind not in OPTIMIZERS:
        raise ContractError(f"unknown optimizer {kind!r}")
    return OPTIMIZERS[kind](lr)


class PlateauSchedule:
    """Decay the rate whenever block-mean loss stops strictly falling.

    Blocks are consecutive non-overlapping runs of LOSS_BLOCK_ITERS
    iterations; a decay divides the rate by LR_DECAY_FACTOR. After a decay
    the next comparison waits until two fresh blocks exist (a two-block
    cooldown), so both sides of the comparison are measured at the new
    rate. The rate never drops below MIN_LR.
    """

    def __init__(self, lr0):
        self.lr = float(lr0)
        self.block_means = []
        self._last_decay_len = None

    def observe(self, block_mean):
        """Record one completed block; return the new rate if a decay fired."""
        self.block_means.append(float(block_mean))
        if len(self.block_means) < 2:
            return None
        if (self._last_decay_len is not None
                and len(self.block_means) - self._last_decay_len < 2):
            return None
        if self.block_means[-1] < self.block_means[-2]:
            return None
        new_lr = max(self.lr / LR_DECAY_FACTOR, MIN_LR)
        if new_lr == self.lr:
            return None
        self.lr = new_lr
        self._last_decay_len = len(self.block_means)
        return new_lr


def class_weights_for(targets, n_classes):
    """w_c = n / (n_classes * count_c); absent classes get weight zero."""
    targets = np.asarray(targets)
    counts = np.bincount(targets, minlength=n_classes)
    weights = np.zeros(n_classes)
    present = counts > 0
    weights[present] = targets.size / (n_classes * counts[present])
    return weights


def weighted_loss(logits, targets, n_classes):
    """Cross-entropy with inverse-frequency class weights from this graph."""
    weights = class_weights_for(targets, n_classes)
    return softmax_cross_entropy(logits, targets, weights)


def backprop(model, inst):
    """The taped step on one instance: forward, weighted loss, zeroed grads,
    backward. Returns the loss; the tape is released on return."""
    with Tape() as tape:  # bound, so backward finds the tape alive
        logits = model.forward(inst.node_features(), inst.graph.adjacency)
        loss = weighted_loss(logits, inst.targets, inst.n_classes)
    model.zero_grads()
    backward(loss)
    return loss.item()


def accuracy(logits_or_pred, targets):
    """Mean per-class recall over the classes present in ``targets``."""
    arr = np.asarray(logits_or_pred)
    pred = arr.argmax(axis=1) if arr.ndim == 2 else arr
    targets = np.asarray(targets)
    recalls = []
    for c in np.unique(targets):
        in_class = targets == c
        recalls.append(float((pred[in_class] == c).mean()))
    return float(np.mean(recalls))


def make_instance_fn(task, q_noise, run_seed):
    """Instance generator for one run; matching fixes one pattern per run."""
    if task == TASK_MATCHING:
        pattern = make_pattern(derive_seed(run_seed, "pattern"))
        return lambda seed: make_matching_instance(q_noise, seed, pattern)[0]
    if task == TASK_CLUSTERING:
        return lambda seed: make_clustering_instance(q_noise, seed)
    raise ContractError(f"unknown task {task!r}")


def evaluate(model, instances):
    """Accuracy per instance; returns (mean, per-instance list)."""
    accs = []
    for inst in instances:
        logits = model.forward(inst.node_features(), inst.graph.adjacency)
        accs.append(accuracy(logits.data, inst.targets))
    return float(np.mean(accs)), accs


def check_run_counts(n_iters, eval_instances, curve_every, curve_instances):
    """Reject counts that would leave a run nothing to train on or average.

    ``curve_every`` is 0 for no curve; ``curve_instances`` matters only
    when there is one. Each count must be an int: a float would pass here
    and fail as a bare TypeError inside the run.
    """
    for name, value in (("n_iters", n_iters), ("eval_instances", eval_instances),
                        ("curve_every", curve_every), ("curve_instances", curve_instances)):
        if not isinstance(value, int):
            raise ContractError(f"{name} must be an int, got {value!r}")
    if n_iters < 1:
        raise ContractError("n_iters must be >= 1")
    if eval_instances < 1:
        raise ContractError("eval_instances must be >= 1")
    if curve_every < 0:
        raise ContractError("curve_every must be >= 0 (0 records no curve)")
    if curve_every and curve_instances < 1:
        raise ContractError("curve_instances must be >= 1 to record a curve")


@dataclass
class TrainSettings:
    task: str
    q_noise: float = 0.1
    n_iters: int = 5000
    optimizer: str = "auto"
    learning_rate: float = None
    seed: int = 0
    eval_instances: int = 100
    curve_every: int = 0
    curve_instances: int = 20

    def __post_init__(self):
        task_dims(self.task)  # raises on an unknown task
        check_probability("q_noise", self.q_noise)
        if self.optimizer not in OPTIMIZER_CHOICES:
            raise ContractError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate is not None and not 0.0 < self.learning_rate < np.inf:
            raise ContractError(f"learning_rate must be finite and > 0, "
                                f"got {self.learning_rate!r}")
        check_run_counts(self.n_iters, self.eval_instances, self.curve_every,
                         self.curve_instances)


@dataclass
class TrainReport:
    config: ModelConfig
    settings: TrainSettings
    optimizer_kind: str
    initial_lr: float
    losses: list
    lrs: list
    elapsed_ms: list
    block_time_ms: list
    decay_events: list
    accuracy_curve: list
    eval_accuracies: list
    final_accuracy: float
    final_accuracy_std: float
    schema: str = field(default="graphbench-train-report v1")

    def rolling_losses(self):
        out = []
        csum = 0.0
        for i, v in enumerate(self.losses):
            csum += v
            if i >= LOSS_BLOCK_ITERS:
                csum -= self.losses[i - LOSS_BLOCK_ITERS]
            out.append(csum / min(i + 1, LOSS_BLOCK_ITERS))
        return out

    def time_per_100_iters_ms(self):
        if not self.block_time_ms:
            return self.elapsed_ms[-1] if self.elapsed_ms else 0.0
        return float(np.median(self.block_time_ms))

    def to_state(self):
        return asdict(self)

    @classmethod
    def from_state(cls, d):
        d = dict(d)
        d["config"] = ModelConfig(**d["config"])
        d["settings"] = TrainSettings(**d["settings"])
        d["decay_events"] = [tuple(e) for e in d["decay_events"]]
        d["accuracy_curve"] = [tuple(e) for e in d["accuracy_curve"]]
        return cls(**d)


def train(config: ModelConfig, settings: TrainSettings):
    """Run one training job; returns (TrainReport, trained GraphModel)."""
    input_dim, n_classes = task_dims(settings.task)
    if config.input_dim != input_dim or config.n_classes != n_classes:
        raise ContractError(
            f"model dims ({config.input_dim}, {config.n_classes}) do not match "
            f"task {settings.task!r} dims ({input_dim}, {n_classes})")

    run_seed = settings.seed
    model = GraphModel(config, seed=derive_seed(run_seed, "init"))
    params = model.parameters()

    kind, lr0 = (settings.optimizer, settings.learning_rate)
    if kind == "auto":
        kind, _ = default_optimizer(config.arch, settings.task)
    if lr0 is None:
        lr0 = default_lr(kind, settings.task)
    opt = make_optimizer(kind, lr0)
    sched = PlateauSchedule(lr0)

    instance_fn = make_instance_fn(settings.task, settings.q_noise, run_seed)
    curve_set = []
    if settings.curve_every:
        curve_set = [instance_fn(derive_seed(run_seed, "curve", k))
                     for k in range(settings.curve_instances)]

    losses = []
    lrs = []
    elapsed_ms = []
    block_time_ms = []
    decay_events = []
    curve = []
    train_clock = 0.0
    last_block_clock = 0.0

    for it in range(1, settings.n_iters + 1):
        t0 = time.perf_counter()
        loss_val = backprop(model, instance_fn(derive_seed(run_seed, "train", it)))
        if not np.isfinite(loss_val):
            raise TrainingDivergedError(
                f"non-finite loss at iteration {it}",
                iteration=it, learning_rate=opt.lr)
        opt.step(params)
        train_clock += time.perf_counter() - t0

        losses.append(loss_val)
        lrs.append(opt.lr)
        elapsed_ms.append(train_clock * 1000.0)

        if it % LOSS_BLOCK_ITERS == 0:
            block_time_ms.append(train_clock * 1000.0 - last_block_clock)
            last_block_clock = train_clock * 1000.0
            new_lr = sched.observe(np.mean(losses[-LOSS_BLOCK_ITERS:]))
            if new_lr is not None:
                opt.lr = new_lr
                decay_events.append((it, new_lr))

        if settings.curve_every and (it % settings.curve_every == 0
                                     or it == settings.n_iters):
            acc, _ = evaluate(model, curve_set)
            curve.append((train_clock, acc))

    eval_insts = [instance_fn(derive_seed(run_seed, "eval", k))
                  for k in range(settings.eval_instances)]
    final_mean, eval_accs = evaluate(model, eval_insts)

    report = TrainReport(
        config=config,
        settings=settings,
        optimizer_kind=kind,
        initial_lr=float(lr0),
        losses=losses,
        lrs=lrs,
        elapsed_ms=elapsed_ms,
        block_time_ms=block_time_ms,
        decay_events=decay_events,
        accuracy_curve=curve,
        eval_accuracies=eval_accs,
        final_accuracy=final_mean,
        final_accuracy_std=float(np.std(eval_accs)),
    )
    return report, model


# ---------------------------------------------------------------------------
# deterministic rendering

def write_series_csv(report: TrainReport, path):
    """Per-iteration series: iteration, loss, rolling_loss, lr, elapsed_ms."""
    rolling = report.rolling_losses()
    lines = ["# graphbench train series v1",
             "iteration,loss,rolling_loss,lr,elapsed_ms"]
    for i in range(len(report.losses)):
        lines.append(f"{i + 1},{report.losses[i]:.17g},{rolling[i]:.17g},"
                     f"{report.lrs[i]:.17g},{report.elapsed_ms[i]:.3f}")
    write_text(path, "\n".join(lines) + "\n")


def summary_dict(report: TrainReport):
    return {
        "schema": "graphbench-train-summary v1",
        "config": asdict(report.config),
        "settings": asdict(report.settings),
        "optimizer": {"kind": report.optimizer_kind, "lr": report.initial_lr},
        "final_accuracy_mean": report.final_accuracy,
        "final_accuracy_std": report.final_accuracy_std,
        "eval_accuracies": report.eval_accuracies,
        "decay_events": [list(e) for e in report.decay_events],
        "time_per_100_iters_ms": report.time_per_100_iters_ms(),
        "total_train_seconds": (report.elapsed_ms[-1] / 1000.0
                                if report.elapsed_ms else 0.0),
        "accuracy_curve": [list(e) for e in report.accuracy_curve],
        "final_loss_rolling_mean": report.rolling_losses()[-1],
    }


def write_text(path, text):
    """Write text as UTF-8 with its line ends untranslated, atomically.

    The text goes to ``path + ".tmp"`` first and is renamed over
    ``path``, so a reader never sees a half-written file.
    """
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path, payload):
    """Write sorted, indented JSON with a trailing newline, atomically."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_summary_json(report: TrainReport, path):
    write_json(path, summary_dict(report))


def record_key(payload):
    """First 16 hex digits of the sha256 of the payload's sorted JSON."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def stored_json(path, compute, key=None):
    """The JSON record at ``path``, where ``compute()`` is written first if absent.

    The record is always read back from the file, so a fresh run and a
    resumed run go on from the same bytes. ``key=(field, value)`` refuses
    a record whose ``field`` is not ``value``.
    """
    if not os.path.exists(path):
        write_json(path, compute())
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if key is not None and record.get(key[0]) != key[1]:
        raise ContractError(f"{path} holds a record of another run "
                            f"({key[0]} is not {key[1]!r}); use a fresh out dir")
    return record
