"""Command-line entry points.

    graphbench gen        write task instances as text files
    graphbench train      one training run with CSV/JSON reporting
    graphbench sweep      run an experiment grid from a spec file
    graphbench dirichlet  the non-learned label-propagation baseline
    graphbench gradcheck  finite-difference validation of all gradients

``train`` and ``sweep`` are resumable: outputs are rendered from cached
state, so repeating a finished command reproduces its files byte-for-byte.
"""

import argparse
import os
import sys
from dataclasses import asdict

from . import gradcheck as gradcheck_mod
from .errors import ContractError, GraphbenchError
from .experiments import (
    parse_experiment_file,
    run_dirichlet_baseline,
    run_experiment,
)
from .generators import (
    SBM_STATS_MIN_GRAPHS,
    TASK_MATCHING,
    TASKS,
    graph_to_text,
    instance_to_text,
    make_pattern,
    validate_sbm_stats,
)
from .seeding import derive_seed
from .training import (
    OPTIMIZER_CHOICES,
    TrainReport,
    TrainSettings,
    make_instance_fn,
    model_config,
    record_key,
    stored_json,
    train,
    write_json,
    write_series_csv,
    write_summary_json,
    write_text,
)


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate task instances to text files")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--q", type=float, default=0.1,
                   help="inter-community edge probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _add_train(sub):
    p = sub.add_parser("train", help="train one model")
    p.add_argument("--arch", required=True)
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--budget", type=int, default=None,
                   help="parameter budget; width is solved to fit")
    p.add_argument("--inner-steps", type=int, default=3)
    p.add_argument("--residual", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--norm", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--optimizer", default="auto", choices=OPTIMIZER_CHOICES)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-instances", type=int, default=100)
    p.add_argument("--curve-every", type=int, default=0)
    p.add_argument("--curve-instances", type=int, default=20)
    p.add_argument("--out", required=True)


def _add_sweep(sub):
    p = sub.add_parser("sweep", help="run an experiment grid from a spec file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    # a string default goes through type=int only when sweep is parsed
    p.add_argument("--workers", type=int,
                   default=os.environ.get("GRAPHBENCH_WORKERS", "1"))


def _add_dirichlet(sub):
    p = sub.add_parser("dirichlet", help="harmonic label-propagation baseline")
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional JSON output path")


def _add_gradcheck(sub):
    p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p.add_argument("--seed", type=int, default=0)


def cmd_gen(args):
    if args.count < 1:
        raise ContractError("--count must be >= 1")
    # draw every instance first, so a refused run writes nothing
    instance_fn = make_instance_fn(args.task, args.q, args.seed)
    instances = [instance_fn(derive_seed(args.seed, "gen", k)) for k in range(args.count)]
    os.makedirs(args.out, exist_ok=True)
    if args.task == TASK_MATCHING:
        # the same pattern make_instance_fn embeds in every instance
        pattern = make_pattern(derive_seed(args.seed, "pattern"))
        write_text(os.path.join(args.out, "pattern.txt"), graph_to_text(pattern))
    for k, inst in enumerate(instances):
        write_text(os.path.join(args.out, f"instance-{k:04d}.txt"),
                   instance_to_text(inst))
    print(f"wrote {len(instances)} {args.task} instances to {args.out}")
    if args.count >= SBM_STATS_MIN_GRAPHS:
        stats = validate_sbm_stats([i.graph for i in instances],
                                   intra_p=0.5, inter_q=args.q)
        print(f"intra density {stats.intra_density:.4f} (z={stats.intra_z:+.2f}), "
              f"inter density {stats.inter_density:.4f} (z={stats.inter_z:+.2f})")
        for flag in stats.flags:
            print(f"warning: {flag}")
    return 0


def cmd_train(args):
    if (args.hidden is None) == (args.budget is None):
        raise ContractError("set exactly one of --hidden or --budget")
    config = model_config(args.arch, args.task, args.layers, args.hidden, args.budget,
                          args.inner_steps, args.residual, args.norm)
    settings = TrainSettings(task=args.task, q_noise=args.q, n_iters=args.iters,
                             optimizer=args.optimizer, learning_rate=args.lr,
                             seed=args.seed, eval_instances=args.eval_instances,
                             curve_every=args.curve_every,
                             curve_instances=args.curve_instances)

    os.makedirs(args.out, exist_ok=True)
    state_path = os.path.join(args.out, "report.json")
    key = record_key({"config": asdict(config), "settings": asdict(settings)})

    def run():
        report, model = train(config, settings)
        model.save(os.path.join(args.out, "model.npz"))
        return {"key": key, "report": report.to_state()}

    resumed = os.path.exists(state_path)
    stored = stored_json(state_path, run, key=("key", key))
    if resumed:
        print("reusing completed run state")
    report = TrainReport.from_state(stored["report"])

    write_series_csv(report, os.path.join(args.out, "series.csv"))
    write_summary_json(report, os.path.join(args.out, "summary.json"))
    print(f"arch={config.arch} hidden={config.hidden_dim} "
          f"params~budget ok, final accuracy "
          f"{report.final_accuracy:.4f} +- {report.final_accuracy_std:.4f}")
    return 0


def cmd_sweep(args):
    spec = parse_experiment_file(args.config)
    summary = run_experiment(spec, args.out, workers=args.workers)
    for g in summary["groups"]:
        print(f"{g['architecture']} value={g['sweep_value']}: "
              f"acc {g['accuracy_mean']:.4f} +- {g['accuracy_std']:.4f} "
              f"({g['n_trials_ok']}/{spec.trials} trials)")
    print(f"results written to {args.out}")
    return 0


def cmd_dirichlet(args):
    result = run_dirichlet_baseline(args.q, args.count, args.seed)
    print(f"dirichlet baseline: accuracy {result['accuracy_mean']:.4f} "
          f"+- {result['accuracy_std']:.4f} over {args.count} instances "
          f"(q={args.q})")
    if result["flagged_nodes_total"]:
        print(f"flagged {result['flagged_nodes_total']} nodes in seedless components")
    if args.out:
        write_json(args.out, result)
    return 0


def cmd_gradcheck(args):
    return gradcheck_mod.main(seed=args.seed)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="graphbench",
        description="graph network benchmarks on stochastic block models")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen(sub)
    _add_train(sub)
    _add_sweep(sub)
    _add_dirichlet(sub)
    _add_gradcheck(sub)
    args = parser.parse_args(argv)
    handler = {
        "gen": cmd_gen,
        "train": cmd_train,
        "sweep": cmd_sweep,
        "dirichlet": cmd_dirichlet,
        "gradcheck": cmd_gradcheck,
    }[args.command]
    try:
        return handler(args)
    except (GraphbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

