import json
import math

import numpy as np
import pytest

from graphbench.errors import BudgetError, ContractError, TrainingDivergedError
from graphbench.models import ModelConfig, count_params
from graphbench.tensor import Tensor
from graphbench.training import (
    ADAM_DEFAULT_LR,
    GLSTM_SGD_LR,
    LOSS_BLOCK_ITERS,
    Adam,
    PlateauSchedule,
    Sgd,
    TrainReport,
    TrainSettings,
    accuracy,
    backprop,
    class_weights_for,
    default_optimizer,
    evaluate,
    make_instance_fn,
    make_optimizer,
    model_config,
    stored_json,
    task_dims,
    train,
    weighted_loss,
    write_series_csv,
    summary_dict,
)
from graphbench.generators import instance_to_text, make_clustering_instance
from graphbench.models import GraphModel


def tiny_config(arch="commnet", task="matching", **kw):
    input_dim, n_classes = task_dims(task)
    base = dict(arch=arch, n_layers=1, hidden_dim=8, input_dim=input_dim,
                n_classes=n_classes, inner_steps=2)
    base.update(kw)
    return ModelConfig(**base)


def test_task_dims():
    assert task_dims("matching") == (3, 2)
    assert task_dims("clustering") == (11, 10)
    with pytest.raises(ContractError):
        task_dims("coloring")


def test_class_weights_hand_values():
    w = class_weights_for([0, 0, 0, 1], 2)
    assert np.allclose(w, [4 / 6, 4 / 2])
    w = class_weights_for([0, 0], 3)
    assert np.allclose(w, [1 / 3, 0.0, 0.0])


def test_weighted_loss_uniform_logits():
    # zero logits give ln(C) per node; the weights average out to one
    logits = Tensor(np.zeros((4, 2)))
    loss = weighted_loss(logits, np.array([0, 0, 0, 1]), 2)
    assert abs(loss.item() - math.log(2)) < 1e-12


def test_accuracy_is_mean_recall_over_present_classes():
    pred = np.array([0, 0, 1, 1])
    targets = np.array([0, 1, 1, 1])
    assert abs(accuracy(pred, targets) - (1.0 + 2 / 3) / 2) < 1e-12
    logits = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 3.0], [0.0, 1.0]])
    assert accuracy(logits, np.array([0, 1, 1, 1])) == 1.0
    # class 2 absent from targets: ignored even if predicted
    assert accuracy(np.array([2, 1]), np.array([0, 1])) == 0.5


def test_default_optimizer_table():
    assert default_optimizer("glstm", "matching") == ("sgd", 0.075)
    assert default_optimizer("glstm", "clustering") == ("sgd", 0.0075)
    for arch in ("vrnn", "ggnn", "commnet", "edge_gcn", "gated_gcn"):
        assert default_optimizer(arch, "matching") == ("adam", ADAM_DEFAULT_LR)


def test_sgd_step_hand_value():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.5, -0.25])
    Sgd(0.1).step({"p": p})
    assert np.allclose(p.data, [0.95, -1.975])
    q = Tensor(np.array([3.0]), requires_grad=True)
    q.grad = None
    Sgd(0.1).step({"q": q})
    assert np.array_equal(q.data, [3.0])


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.5, -0.25])
    opt = Adam(0.1)
    opt.step({"p": p})
    # bias correction makes the first update lr * g / (|g| + eps)
    assert np.allclose(p.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)
    assert opt.t == 1


def test_adam_keeps_per_parameter_state():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam(0.1)
    for _ in range(3):
        p.grad = np.array([1.0])
        opt.step({"p": p})
    assert opt.t == 3
    assert p.data[0] < -0.29  # three near-full steps in the same direction


def test_plateau_schedule_decay_cooldown():
    sched = PlateauSchedule(1.0)
    assert sched.observe(1.0) is None          # first block: nothing to compare
    assert sched.observe(0.9) is None          # still falling
    assert sched.observe(0.95) == pytest.approx(0.8)   # plateau -> /1.25
    assert sched.observe(0.96) is None         # cooldown block
    assert sched.observe(0.97) == pytest.approx(0.64)  # eligible again
    assert sched.lr == pytest.approx(0.64)


def test_plateau_schedule_floor():
    sched = PlateauSchedule(1e-6)
    sched.observe(1.0)
    assert sched.observe(2.0) is None
    assert sched.lr == 1e-6


def test_train_rejects_wrong_dims():
    cfg = tiny_config(task="clustering")  # clustering dims
    with pytest.raises(ContractError):
        train(cfg, TrainSettings(task="matching", n_iters=1))


@pytest.mark.parametrize("counts", [
    dict(eval_instances=0),
    dict(curve_every=1, curve_instances=0),
    dict(curve_every=-1),
    dict(n_iters=3.5),
    dict(eval_instances=2.5),
    dict(curve_every=1.5),
    dict(curve_every=1, curve_instances=2.5),
], ids=["no-eval-instances", "no-curve-instances", "negative-curve-every",
        "fractional-iters", "fractional-eval-instances", "fractional-curve-every",
        "fractional-curve-instances"])
def test_settings_reject_counts_below_one(counts):
    # each would average an empty list into a NaN accuracy, (a negative
    # curve_every) evaluate the curve every iteration, or (a fraction) fail
    # inside the run as a bare TypeError
    with pytest.raises(ContractError):
        TrainSettings(**{"task": "matching", "n_iters": 1, **counts})


@pytest.mark.parametrize("bad", [
    dict(q_noise=1.5),
    dict(q_noise=-0.2),
    dict(q_noise=float("nan")),
    dict(optimizer="bogus"),
    dict(learning_rate=-1.0),
    dict(learning_rate=0.0),
    dict(learning_rate=float("nan")),
    dict(learning_rate=float("inf")),
], ids=["q-above-one", "q-negative", "q-nan", "unknown-optimizer", "negative-lr",
        "zero-lr", "nan-lr", "inf-lr"])
def test_settings_reject_malformed_values(bad):
    with pytest.raises(ContractError):
        TrainSettings(task="matching", n_iters=1, **bad)


def test_optimizer_kinds_shared_by_settings_and_make_optimizer():
    for kind in ("auto", "adam", "sgd"):
        TrainSettings(task="matching", optimizer=kind)
    assert make_optimizer("adam", 0.1).kind == "adam"
    assert make_optimizer("sgd", 0.1).kind == "sgd"
    with pytest.raises(ContractError):
        make_optimizer("auto", 0.1)  # "auto" is resolved per architecture first


def test_model_config_resolves_width_from_hidden_or_budget():
    cfg = model_config("commnet", "clustering", 2, hidden_dim=8, inner_steps=1)
    assert cfg == ModelConfig(arch="commnet", n_layers=2, hidden_dim=8, input_dim=11,
                              n_classes=10, inner_steps=1)
    cfg = model_config("gated_gcn", "matching", 3, budget=5000, use_norm=False)
    assert (cfg.input_dim, cfg.n_classes, cfg.use_norm) == (3, 2, False)
    assert count_params(cfg) <= 5000
    wider = ModelConfig(**{**cfg.__dict__, "hidden_dim": cfg.hidden_dim + 1})
    assert count_params(wider) > 5000


def test_model_config_checks_every_field_before_solving():
    for width in (dict(), dict(hidden_dim=8, budget=5000)):
        with pytest.raises(ContractError, match="set hidden_dim or budget"):
            model_config("commnet", "clustering", 2, **width)
    with pytest.raises(ContractError, match="unknown task"):
        model_config("commnet", "coloring", 2, hidden_dim=8)
    with pytest.raises(BudgetError):
        model_config("glstm", "clustering", 6, budget=10)
    # malformed fields are contract errors even where the budget cannot fit
    for bad in (dict(arch="resnet"), dict(n_layers=0), dict(inner_steps=0),
                dict(budget=-5)):
        kw = {"arch": "glstm", "task": "clustering", "n_layers": 6, "budget": 10, **bad}
        with pytest.raises(ContractError):
            model_config(**kw)
    with pytest.raises(ContractError):
        model_config("commnet", "clustering", 2, hidden_dim=0)


def test_train_smoke_every_architecture():
    for arch in ("vrnn", "ggnn", "glstm", "commnet", "edge_gcn", "gated_gcn"):
        cfg = tiny_config(arch, task="clustering")
        settings = TrainSettings(task="clustering", n_iters=4, seed=5,
                                 eval_instances=2)
        report, model = train(cfg, settings)
        assert len(report.losses) == 4
        assert len(report.lrs) == 4
        assert len(report.elapsed_ms) == 4
        assert all(np.isfinite(v) for v in report.losses), arch
        assert 0.0 <= report.final_accuracy <= 1.0
        assert len(report.eval_accuracies) == 2
        assert report.block_time_ms == []  # fewer than 100 iterations


def test_train_resolves_auto_optimizer():
    cfg = tiny_config("glstm", task="clustering")
    report, _ = train(cfg, TrainSettings(task="clustering", n_iters=1,
                                         eval_instances=1))
    assert report.optimizer_kind == "sgd"
    assert report.initial_lr == 0.0075
    cfg = tiny_config("gated_gcn", task="clustering")
    report, _ = train(cfg, TrainSettings(task="clustering", n_iters=1,
                                         eval_instances=1))
    assert report.optimizer_kind == "adam"
    assert report.initial_lr == ADAM_DEFAULT_LR


def test_explicit_optimizer_defaults_to_its_own_rate():
    # the rate follows the chosen optimizer, not the architecture's default one
    for arch, kind, lr in (("glstm", "adam", ADAM_DEFAULT_LR),
                           ("gated_gcn", "sgd", GLSTM_SGD_LR["clustering"])):
        report, _ = train(tiny_config(arch, task="clustering"),
                          TrainSettings(task="clustering", n_iters=1,
                                        eval_instances=1, optimizer=kind))
        assert (report.optimizer_kind, report.initial_lr) == (kind, lr), arch


def test_train_is_deterministic():
    cfg = tiny_config("gated_gcn", task="matching")
    settings = TrainSettings(task="matching", n_iters=12, seed=21,
                             eval_instances=3)
    r1, m1 = train(cfg, settings)
    r2, m2 = train(cfg, settings)
    assert r1.losses == r2.losses
    assert r1.final_accuracy == r2.final_accuracy
    assert r1.eval_accuracies == r2.eval_accuracies
    for (name, t1), (_, t2) in zip(m1.named_tensors(), m2.named_tensors()):
        assert np.array_equal(t1.data, t2.data), name


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_diverges_with_absurd_rate():
    cfg = tiny_config("commnet", task="matching")
    settings = TrainSettings(task="matching", n_iters=5, optimizer="sgd",
                             learning_rate=1e200, eval_instances=1)
    with pytest.raises(TrainingDivergedError) as err:
        train(cfg, settings)
    assert err.value.iteration <= 3


def test_accuracy_curve_recording():
    cfg = tiny_config("commnet", task="matching")
    settings = TrainSettings(task="matching", n_iters=8, eval_instances=1,
                             curve_every=4, curve_instances=2)
    report, _ = train(cfg, settings)
    assert len(report.accuracy_curve) == 2
    for elapsed, acc in report.accuracy_curve:
        assert elapsed >= 0.0
        assert 0.0 <= acc <= 1.0


def test_report_state_roundtrip_renders_identically(tmp_path):
    cfg = tiny_config("commnet", task="matching")
    settings = TrainSettings(task="matching", n_iters=6, eval_instances=2,
                             curve_every=3, curve_instances=1)
    report, _ = train(cfg, settings)
    # through json, as the resumable store does
    revived = TrainReport.from_state(json.loads(json.dumps(report.to_state())))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series_csv(report, a)
    write_series_csv(revived, b)
    assert a.read_bytes() == b.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))  # written through a renamed temp file
    assert summary_dict(report) == summary_dict(revived)


def test_stored_json_computes_once_and_refuses_a_foreign_record(tmp_path):
    path = tmp_path / "record.json"
    calls = []

    def compute():
        calls.append(1)
        return {"key": "ours", "pair": (1, 2)}

    # the fresh record too is the one read back: its tuple is a JSON list
    first = stored_json(path, compute, key=("key", "ours"))
    again = stored_json(path, compute, key=("key", "ours"))
    assert first == again == {"key": "ours", "pair": [1, 2]}
    assert len(calls) == 1  # a stored record is never recomputed
    with pytest.raises(ContractError, match="record.json"):
        stored_json(path, compute, key=("key", "theirs"))
    assert len(calls) == 1
    assert not list(tmp_path.glob("*.tmp"))


def test_rolling_losses_average_the_last_loss_block():
    losses = list(np.random.default_rng(0).uniform(0.0, 3.0, 2 * LOSS_BLOCK_ITERS + 7))
    report = TrainReport(
        config=tiny_config(), settings=TrainSettings(task="matching"),
        optimizer_kind="adam", initial_lr=0.1, losses=losses, lrs=[],
        elapsed_ms=[], block_time_ms=[], decay_events=[], accuracy_curve=[],
        eval_accuracies=[], final_accuracy=0.0, final_accuracy_std=0.0)
    rolling = report.rolling_losses()
    assert len(rolling) == len(losses)
    for i in (0, LOSS_BLOCK_ITERS - 1, LOSS_BLOCK_ITERS, len(losses) - 1):
        window = losses[max(0, i + 1 - LOSS_BLOCK_ITERS):i + 1]
        assert rolling[i] == pytest.approx(np.mean(window), rel=1e-12)


def test_evaluate_returns_per_instance_accuracies():
    cfg = tiny_config("commnet", task="clustering")
    model = GraphModel(cfg, seed=0)
    instances = [make_clustering_instance(0.1, s) for s in (1, 2, 3)]
    mean, accs = evaluate(model, instances)
    assert len(accs) == 3
    assert mean == pytest.approx(float(np.mean(accs)))


def test_make_instance_fn_is_deterministic():
    fn1 = make_instance_fn("matching", 0.1, 77)
    fn2 = make_instance_fn("matching", 0.1, 77)
    assert instance_to_text(fn1(5)) == instance_to_text(fn2(5))
    # different instance seeds give different graphs under the same pattern
    assert instance_to_text(fn1(5)) != instance_to_text(fn1(6))


def test_overfitting_one_instance_drops_the_loss():
    inst = make_clustering_instance(0.1, 4)
    cfg = ModelConfig(arch="gated_gcn", n_layers=2, hidden_dim=16,
                      input_dim=11, n_classes=10)
    model = GraphModel(cfg, seed=1)
    opt = Adam(0.003)
    params = model.parameters()
    losses = []
    for _ in range(60):
        losses.append(backprop(model, inst))
        opt.step(params)
    assert losses[-1] < 0.5 * losses[0]
