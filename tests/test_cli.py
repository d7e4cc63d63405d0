import json
import os
import subprocess
import sys

import numpy as np
import pytest

import graphbench
from graphbench.cli import main
from graphbench.generators import graph_from_text, instance_from_text
from graphbench.models import ModelConfig, count_params

TRAIN_ARGS = ["train", "--arch", "commnet", "--task", "matching",
              "--layers", "1", "--inner-steps", "2", "--iters", "5",
              "--eval-instances", "2"]


def test_gen_matching_files_parse(tmp_path, capsys):
    out = tmp_path / "inst"
    rc = main(["gen", "--task", "matching", "--count", "2",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    pattern = graph_from_text((out / "pattern.txt").read_text())
    assert pattern.n_nodes == 20
    pattern_pairs = pattern.adjacency.undirected_pairs()
    for k in range(2):
        inst = instance_from_text((out / f"instance-{k:04d}.txt").read_text())
        assert inst.task == "matching"
        assert int(np.sum(inst.targets)) == 20
        # pattern.txt is the pattern embedded in the last 20 nodes of each instance
        host_n = inst.graph.n_nodes - 20
        assert np.array_equal(inst.graph.signal[host_n:], pattern.signal)
        embedded = {tuple(p) for p in inst.graph.adjacency.undirected_pairs()}
        assert {(a + host_n, b + host_n) for a, b in pattern_pairs} <= embedded
    assert "wrote 2 matching instances" in capsys.readouterr().out


def test_gen_clustering_files_parse(tmp_path):
    out = tmp_path / "inst"
    assert main(["gen", "--task", "clustering", "--count", "1",
                 "--out", str(out)]) == 0
    inst = instance_from_text((out / "instance-0000.txt").read_text())
    assert inst.task == "clustering"
    assert inst.seed_mask.sum() == 10


def test_train_writes_resumes_and_guards(tmp_path, capsys):
    out = tmp_path / "run"
    argv = TRAIN_ARGS + ["--hidden", "8", "--out", str(out)]
    assert main(argv) == 0
    for name in ("report.json", "series.csv", "summary.json", "model.npz"):
        assert (out / name).exists(), name
    series = (out / "series.csv").read_bytes()
    summary = (out / "summary.json").read_bytes()
    capsys.readouterr()

    assert main(argv) == 0
    assert "reusing completed run state" in capsys.readouterr().out
    assert (out / "series.csv").read_bytes() == series
    assert (out / "summary.json").read_bytes() == summary

    # same directory, different settings: refuse rather than overwrite
    assert main(TRAIN_ARGS + ["--hidden", "8", "--seed", "9",
                              "--out", str(out)]) == 2
    refused = capsys.readouterr()
    assert "reusing" not in refused.out
    assert "report.json holds a record of another run" in refused.err
    assert (out / "series.csv").read_bytes() == series


def test_train_size_flags_are_exclusive(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(TRAIN_ARGS + ["--out", out]) == 2
    assert main(TRAIN_ARGS + ["--hidden", "8", "--budget", "1000",
                              "--out", out]) == 2
    err = capsys.readouterr().err
    assert "exactly one of --hidden or --budget" in err


def test_train_budget_solves_width(tmp_path):
    out = tmp_path / "run"
    assert main(TRAIN_ARGS + ["--budget", "500", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    cfg = ModelConfig(**summary["config"])
    assert count_params(cfg) <= 500
    assert cfg.hidden_dim >= 1


def test_sweep_cli_roundtrip(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "name = cli-sweep\nsweep = layers\ntask = matching\n"
        "archs = commnet\nvalues = 1\ntrials = 1\nn_iters = 4\n"
        "eval_instances = 2\nhidden_dim = 8\ninner_steps = 2\n"
        "time_batches = false\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    results = (out / "results.csv").read_bytes()
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "results.csv").read_bytes() == results


def test_sweep_cli_reports_malformed_number(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("name = bad\nsweep = layers\ntask = matching\n"
                      "archs = commnet\nvalues = 1\ntrials = abc\nhidden_dim = 8\n")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "error: line 6: trials expects int, got 'abc'" in capsys.readouterr().err


def test_sweep_cli_reports_missing_config(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["sweep", "--config", str(missing), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.cfg" in err


def test_bad_workers_variable_reaches_only_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRAPHBENCH_WORKERS", "two")
    assert main(["gen", "--task", "clustering", "--count", "1",
                 "--out", str(tmp_path / "inst")]) == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--config", "x.cfg", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "--workers: invalid int value: 'two'" in capsys.readouterr().err


def test_dirichlet_cli(tmp_path, capsys):
    out = tmp_path / "dirichlet.json"
    assert main(["dirichlet", "--count", "2", "--out", str(out)]) == 0
    assert "dirichlet baseline: accuracy" in capsys.readouterr().out
    blob = json.loads(out.read_text())
    assert blob["n_instances"] == 2


@pytest.mark.parametrize("argv", [
    ["dirichlet", "--count", "0"],
    ["train", "--arch", "commnet", "--task", "matching", "--hidden", "4",
     "--iters", "1", "--eval-instances", "0"],
    ["gen", "--task", "matching", "--count", "0"],
], ids=["dirichlet-no-instances", "train-no-eval-instances", "gen-no-instances"])
def test_counts_below_one_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--task", "clustering", "--count", "2", "--q", "1.5"],
    ["gen", "--task", "matching", "--count", "2", "--q", "1.5"],
    ["dirichlet", "--count", "2", "--q", "-0.2"],
    TRAIN_ARGS + ["--hidden", "4", "--q", "1.5"],
    TRAIN_ARGS + ["--hidden", "4", "--lr", "-1"],
], ids=["gen-clustering-q-above-one", "gen-matching-q-above-one",
        "dirichlet-q-negative", "train-q-above-one", "train-negative-lr"])
def test_out_of_range_values_exit_2(argv, tmp_path, capsys):
    # refused before anything is written; gen draws before it makes --out
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_sweep_cli_refuses_a_malformed_cell_before_writing(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("name = bad\nsweep = layers\ntask = matching\n"
                      "archs = commnet\nvalues = 1\nhidden_dim = 0\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    assert "hidden_dim must be >= 1" in capsys.readouterr().err
    assert not (out / "spec.json").exists()


def test_sweep_cli_refuses_a_repeated_architecture_before_writing(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("name = dup\nsweep = layers\ntask = clustering\n"
                      "archs = commnet, commnet, gated_gcn\nvalues = 1\n"
                      "trials = 1\nn_iters = 3\neval_instances = 1\nhidden_dim = 4\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    assert "repeated architecture" in capsys.readouterr().err
    assert not (out / "spec.json").exists()


def test_gradcheck_cli_passes():
    assert main(["gradcheck"]) == 0


def test_module_entry_point_runs():
    # the package directory's parent goes on the path, as an install would put it
    src = os.path.dirname(os.path.dirname(graphbench.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "graphbench", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "gradcheck" in proc.stdout


def test_bad_architecture_is_reported(tmp_path, capsys):
    argv = list(TRAIN_ARGS)
    argv[2] = "resnet"
    assert main(argv + ["--hidden", "8", "--out", str(tmp_path / "y")]) == 2
    assert "error:" in capsys.readouterr().err
