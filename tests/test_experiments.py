import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

import graphbench
from graphbench import acceptance, experiments
from graphbench.errors import ContractError
from graphbench.experiments import (
    ExperimentSpec,
    parse_experiment_text,
    resolve_cell,
    run_dirichlet_baseline,
    run_experiment,
    run_single_cell,
    time_batches,
)
from graphbench.models import ModelConfig, count_params


def tiny_spec(**kw):
    base = dict(name="unit", sweep="layers", task="matching",
                archs=("commnet",), values=(1,), trials=2, seed=3,
                n_iters=4, eval_instances=2, hidden_dim=8,
                inner_steps=2, time_batches=False)
    base.update(kw)
    return ExperimentSpec(**base)


def test_parse_experiment_text():
    text = """
    # depth sweep
    name = demo
    sweep = layers
    task = clustering
    archs = gated_gcn, glstm
    values = 1, 2, 4
    trials = 3
    hidden_dim = 16
    q_noise = 0.15
    residual = false
    n_iters = 10   # short
    """
    spec = parse_experiment_text(text)
    assert spec.name == "demo"
    assert spec.archs == ("gated_gcn", "glstm")
    assert spec.values == (1, 2, 4)
    assert spec.trials == 3
    assert spec.q_noise == 0.15
    assert spec.residual is False
    assert spec.n_iters == 10


def test_parse_learning_speed_defaults_single_value():
    spec = parse_experiment_text(
        "name=ls\nsweep=learning_speed\ntask=matching\n"
        "archs=commnet\nhidden_dim=8\n")
    assert spec.values == (0,)


def test_parse_rejects_malformed_text():
    good = "name=x\nsweep=layers\ntask=matching\narchs=commnet\nvalues=1\nhidden_dim=8\n"
    with pytest.raises(ContractError):
        parse_experiment_text(good + "bogus_key=1\n")
    with pytest.raises(ContractError):
        parse_experiment_text(good + "name=y\n")
    with pytest.raises(ContractError):
        parse_experiment_text(good + "residual=maybe\n")
    with pytest.raises(ContractError):
        parse_experiment_text("name=x\nsweep=layers\n")
    with pytest.raises(ContractError):
        parse_experiment_text(good.replace("name=x\n", "") + "no equals here\n")


@pytest.mark.parametrize("line", ["trials=abc", "values=1,x", "q_noise=high"])
def test_parse_rejects_malformed_numbers_with_line_number(line):
    good = "name=x\nsweep=layers\ntask=matching\narchs=commnet\nhidden_dim=8\n"
    if not line.startswith("values="):
        good += "values=1\n"
    key = line.split("=")[0]
    lineno = good.count("\n") + 1
    with pytest.raises(ContractError, match=f"line {lineno}: {key} expects"):
        parse_experiment_text(good + line + "\n")


def test_spec_validation():
    with pytest.raises(ContractError):
        tiny_spec(sweep="width")
    with pytest.raises(ContractError):
        tiny_spec(task="coloring")
    with pytest.raises(ContractError):
        tiny_spec(archs=("resnet",))
    with pytest.raises(ContractError):
        tiny_spec(trials=0)
    with pytest.raises(ContractError):
        tiny_spec(values=())
    with pytest.raises(ContractError):
        tiny_spec(sweep="budget", values=(1000,))  # hidden_dim must be dropped
    with pytest.raises(ContractError):
        tiny_spec(hidden_dim=None)  # no width and no budget
    with pytest.raises(ContractError):
        tiny_spec(sweep="noise", values=(1.5,))


@pytest.mark.parametrize("counts", [
    dict(n_iters=0),
    dict(eval_instances=0),
    dict(sweep="learning_speed", values=(0,), curve_instances=0),
    dict(sweep="learning_speed", values=(0,), curve_every=-1),
], ids=["no-iters", "no-eval-instances", "no-curve-instances",
        "negative-curve-every"])
def test_spec_rejects_counts_below_one(counts):
    # a sweep fails before its first cell, not in every cell or with NaN
    with pytest.raises(ContractError):
        tiny_spec(**counts)


@pytest.mark.parametrize("bad", [
    dict(hidden_dim=0),
    dict(inner_steps=0),
    dict(sweep="noise", values=(0.1,), n_layers=0),
    dict(hidden_dim=None, budget=-5),
    dict(sweep="budget", values=(-5,), hidden_dim=None),
    dict(q_noise=1.5),
    dict(optimizer="bogus"),
    dict(learning_rate=-1.0),
    # a width and a budget together would train at the width and record both
    dict(budget=100000),
    # every cell's budget is too small, which alone stays a per-cell error
    dict(sweep="budget", values=(10,), hidden_dim=None, q_noise=1.5),
    dict(sweep="budget", values=(10,), hidden_dim=None, inner_steps=0),
    # a spec file gives ints; code can pass floats, which must not train
    dict(sweep="noise", values=(0.1,), n_layers=1.5),
    dict(hidden_dim=8.5),
    dict(inner_steps=2.5),
    dict(trials=1.5),
    dict(n_iters=3.5),
    dict(eval_instances=1.5),
    dict(sweep="learning_speed", values=(0,), curve_every=2.5),
    # a repeated cell would take the record computed for the cell before it
    dict(archs=("commnet", "commnet", "gated_gcn")),
    dict(values=(1, 1, 2)),
    dict(values=(2, 1, 2.0)),
], ids=["zero-hidden", "zero-inner-steps", "zero-layers", "negative-budget",
        "negative-budget-value", "q-above-one", "unknown-optimizer", "negative-lr",
        "hidden-and-budget", "q-in-unfit-budget-cell",
        "inner-steps-in-unfit-budget-cell",
        "fractional-layers", "fractional-hidden", "fractional-inner-steps",
        "fractional-trials", "fractional-iters", "fractional-eval-instances",
        "fractional-curve-every", "repeated-arch", "repeated-value",
        "repeated-value-as-float"])
def test_spec_rejects_malformed_cells(bad):
    # each fails before spec.json is written, not at the first cell
    with pytest.raises(ContractError):
        tiny_spec(**bad)


@pytest.mark.parametrize("sweep", ["layers", "inner_steps", "budget"])
def test_sweep_values_must_be_whole(sweep):
    # int(value) would truncate 1.5 to 1, and the cell file would say v1p5
    extra = {"hidden_dim": None} if sweep == "budget" else {}
    with pytest.raises(ContractError, match="whole numbers"):
        tiny_spec(sweep=sweep, values=(1.5,), **extra)
    whole = 2000.0 if sweep == "budget" else 2.0
    tiny_spec(sweep=sweep, values=(whole,), **extra)


def test_committed_specs_load_and_own_their_cells():
    # the stricter checks must reject no committed experiment
    results = pathlib.Path(__file__).resolve().parents[1] / "results"
    spec_paths = sorted(results.glob("acceptance/*/spec.json")) + \
        sorted(results.glob("analysis/*/spec.json"))
    assert len(spec_paths) >= 7
    for path in spec_paths:
        spec = ExperimentSpec(**json.loads(path.read_text()))
        cells = sorted((path.parent / "cells").glob("*.json"))
        assert cells, path
        for cell in cells:
            assert json.loads(cell.read_text())["spec_hash"] == spec.spec_hash(), cell


def test_resolve_cell_applies_sweep_value():
    cfg, s = resolve_cell(tiny_spec(values=(4,)), "commnet", 4, 0)
    assert cfg.n_layers == 4 and cfg.hidden_dim == 8

    cfg, s = resolve_cell(tiny_spec(sweep="noise", values=(0.25,)), "commnet", 0.25, 0)
    assert s.q_noise == 0.25

    cfg, s = resolve_cell(tiny_spec(sweep="inner_steps", values=(5,)), "commnet", 5, 0)
    assert cfg.inner_steps == 5

    spec = tiny_spec(sweep="budget", values=(2000,), hidden_dim=None)
    cfg, s = resolve_cell(spec, "commnet", 2000, 0)
    assert count_params(cfg) <= 2000
    bigger = ModelConfig(**{**cfg.__dict__, "hidden_dim": cfg.hidden_dim + 1})
    assert count_params(bigger) > 2000

    # trials get distinct seeds, same trial twice gets the same seed
    _, s0 = resolve_cell(spec, "commnet", 2000, 0)
    _, s1 = resolve_cell(spec, "commnet", 2000, 1)
    _, s0b = resolve_cell(spec, "commnet", 2000, 0)
    assert s0.seed != s1.seed
    assert s0.seed == s0b.seed


def test_curve_only_recorded_for_learning_speed():
    _, s = resolve_cell(tiny_spec(curve_every=50), "commnet", 1, 0)
    assert s.curve_every == 0
    ls = tiny_spec(sweep="learning_speed", values=(0,), curve_every=2)
    _, s = resolve_cell(ls, "commnet", 0, 0)
    assert s.curve_every == 2


def test_run_single_cell_records():
    rec = run_single_cell(tiny_spec(), "commnet", 1, 0)
    assert rec["error"] is None
    assert 0.0 <= rec["final_accuracy"] <= 1.0
    assert rec["spec_hash"] == tiny_spec().spec_hash()
    assert len(rec["eval_accuracies"]) == 2

    # an unmeetable budget becomes an error record, not an exception
    spec = tiny_spec(sweep="budget", values=(10,), hidden_dim=None)
    rec = run_single_cell(spec, "commnet", 10, 0)
    assert rec["error"].startswith("BudgetError")


def test_run_experiment_resumes_and_rerenders_identically(tmp_path):
    spec = tiny_spec()
    d1 = tmp_path / "one"
    summary = run_experiment(spec, d1)
    assert (d1 / "spec.json").exists()
    assert len(list((d1 / "cells").glob("*.json"))) == 2
    csv1 = (d1 / "results.csv").read_bytes()
    sum1 = (d1 / "summary.json").read_bytes()
    assert summary["groups"][0]["n_trials_ok"] == 2

    # same directory again: everything reused, bytes unchanged
    run_experiment(spec, d1)
    assert (d1 / "results.csv").read_bytes() == csv1
    assert (d1 / "summary.json").read_bytes() == sum1

    # fresh directory: deterministic accuracy columns, identical csv
    d2 = tmp_path / "two"
    run_experiment(spec, d2)
    assert (d2 / "results.csv").read_bytes() == csv1


def test_run_experiment_rejects_spec_change(tmp_path):
    d = tmp_path / "exp"
    run_experiment(tiny_spec(), d)
    with pytest.raises(ContractError):
        run_experiment(tiny_spec(seed=999), d)


@pytest.mark.parametrize("name", ["commnet-v1-t0.json", "time-commnet-v1.json"])
def test_run_experiment_refuses_a_record_of_another_spec(tmp_path, name):
    # spec.json matches, so only the record's own spec_hash can refuse it
    ours, theirs = tiny_spec(time_batches=True), tiny_spec(time_batches=True, seed=4)
    run_experiment(ours, tmp_path / "ours")
    run_experiment(theirs, tmp_path / "theirs")
    shutil.copy(tmp_path / "theirs" / "cells" / name, tmp_path / "ours" / "cells" / name)
    with pytest.raises(ContractError, match=name):
        run_experiment(ours, tmp_path / "ours")


def test_run_experiment_parallel_matches_serial(tmp_path):
    spec = tiny_spec()
    d1 = tmp_path / "serial"
    d2 = tmp_path / "parallel"
    run_experiment(spec, d1, workers=1)
    run_experiment(spec, d2, workers=2)
    assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()


FORK_SPEC = dict(name="fork", sweep="layers", task="matching", archs=("gated_gcn",),
                 values=(1,), trials=2, seed=3, n_iters=4, eval_instances=2,
                 hidden_dim=4, inner_steps=2, time_batches=False)

# a gated forward starts the helper thread, then a sweep forks its workers
GATED_THEN_FORK = f"""
import sys
import numpy as np
from graphbench.adjacency import SparseAdjacency
from graphbench.experiments import ExperimentSpec, run_experiment
from graphbench.tensor import Tensor, gated_aggregate

adj = SparseAdjacency(3, [0, 1], [2, 2])
gated_aggregate(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))), adj)
run_experiment(ExperimentSpec(**{FORK_SPEC!r}), sys.argv[1], workers=2)
"""


def test_forked_workers_after_a_gated_forward_match_serial(tmp_path):
    # a forked worker inherits the parent's helper executor but not its
    # thread; unless the fork resets it, the worker's first gated forward
    # waits forever
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphbench.__file__)))
    proc = subprocess.Popen([sys.executable, "-c", GATED_THEN_FORK, str(tmp_path / "parallel")],
                            env=env, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the workers too
        proc.communicate()
        pytest.fail("the forked sweep did not finish in 120 s")
    assert proc.returncode == 0, err
    run_experiment(ExperimentSpec(**FORK_SPEC), tmp_path / "serial", workers=1)
    assert ((tmp_path / "parallel" / "results.csv").read_bytes()
            == (tmp_path / "serial" / "results.csv").read_bytes())


def test_learning_speed_writes_curves(tmp_path):
    spec = tiny_spec(sweep="learning_speed", values=(0,), trials=1,
                     n_iters=4, curve_every=2, curve_instances=1)
    run_experiment(spec, tmp_path / "ls")
    lines = (tmp_path / "ls" / "learning_speed.csv").read_text().splitlines()
    assert lines[0] == "# graphbench learning curve v1"
    assert lines[1] == "architecture,trial,seconds,accuracy"
    assert len(lines) == 2 + 2  # snapshots at iterations 2 and 4
    for row in lines[2:]:
        arch, trial, seconds, acc = row.split(",")
        assert arch == "commnet"
        assert 0.0 <= float(acc) <= 1.0


def _fake_timer(name, times, calls):
    times = iter(times)

    def run():
        calls.append(name)
        return next(times)

    return run


def test_time_batches_alternates_timers_and_takes_medians():
    calls = []
    got = time_batches({"a": _fake_timer("a", [3.0, 1.0, 2.0], calls),
                        "b": _fake_timer("b", [10.0, 30.0, 25.0], calls)})
    assert calls == ["a", "b", "a", "b", "a", "b"]
    assert got == {"a": {"batch_time_ms": 2.0, "repeat_ms": [3.0, 1.0, 2.0]},
                   "b": {"batch_time_ms": 25.0, "repeat_ms": [10.0, 30.0, 25.0]}}
    calls.clear()
    assert time_batches({"a": _fake_timer("a", [4.0, 5.0, 6.0], calls)})["a"] == \
        {"batch_time_ms": 5.0, "repeat_ms": [4.0, 5.0, 6.0]}
    assert calls == ["a"] * 3


@pytest.fixture
def counted_backprop(monkeypatch):
    """Replace the timers' training step with a call counter."""
    calls = []
    monkeypatch.setattr(experiments, "backprop", lambda model, inst: calls.append(model))
    return calls


def test_sweep_timing_record_keys_and_runs(tmp_path, counted_backprop):
    run_experiment(tiny_spec(time_batches=True), tmp_path)
    rec = json.loads((tmp_path / "cells" / "time-commnet-v1.json").read_text())
    assert set(rec) == {"schema", "spec_hash", "arch", "sweep_value", "batch_time_ms",
                        "repeat_ms", "n_graphs", "error"}
    assert rec["n_graphs"] == experiments.TIMING_GRAPHS and rec["error"] is None
    assert len(rec["repeat_ms"]) == 3
    assert rec["batch_time_ms"] == float(np.median(rec["repeat_ms"]))
    # one untimed pass over the batch, then three timed ones
    assert len(counted_backprop) == 4 * experiments.TIMING_GRAPHS


def test_acceptance_timing_keeps_the_committed_keys(counted_backprop):
    committed = json.loads(
        (pathlib.Path(__file__).resolve().parents[1]
         / "results" / "acceptance" / "timing.json").read_text())
    record = acceptance.measure_timing()
    assert set(record) == set(committed)
    for arch in ("gated_gcn", "glstm"):
        assert set(record[arch]) == set(committed[arch])
        assert record[arch]["hidden_dim"] == committed[arch]["hidden_dim"]
    assert len(counted_backprop) == 2 * 4 * experiments.TIMING_GRAPHS


def test_dirichlet_baseline_rejects_no_instances():
    with pytest.raises(ContractError):
        run_dirichlet_baseline(0.1, n_instances=0, seed=0)


def test_dirichlet_baseline_summary():
    rec = run_dirichlet_baseline(0.1, n_instances=2, seed=0)
    assert rec["schema"] == "graphbench-dirichlet v1"
    assert len(rec["accuracies"]) == 2
    assert 0.0 <= rec["accuracy_mean"] <= 1.0
