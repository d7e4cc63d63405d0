#!/usr/bin/env python3
"""Interleaved A/B of the benchmark: a git ref against this working tree.

    python3 tools/ab.py --ref HEAD~1 --workload baseline-clustering \\
        --pairs 10 --seconds 20 --seed 2026 \\
        --out results/bench/BENCH_<tag>.json

The ref is exported with ``git archive`` into a temporary directory. Each
pair runs that tree's own ``bench/run.py`` and this tree's, each in a fresh
process with ``--trace 0``, the ref first in even pairs and the change
first in odd ones, so that drift on the machine falls on both sides. The
output file holds every pair's end-to-end metrics (the names this tree's
BENCHMARK.json lists), each side's median and quartiles, the median and
quartiles of the per-pair change/ref ratio, the change's wins (ties count
for neither side), two verdicts per metric (see :func:`summarize`),
whether ``loss_mean`` read the same in every run, and the environment.
The exit code is 1 when any run reported incorrect output or failed, or
when ``loss_mean`` differed between any two runs.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("ref", "change")


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_ref(ref, dest):
    """Write the tree of ``ref`` into ``dest``; return the commit's full hash."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_bench(tree, workload, seed, seconds):
    """One untraced run of ``tree``'s bench/run.py: (result JSON or None,
    env dict or None, exit code)."""
    cmd = [sys.executable, str(Path(tree) / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return result, env, proc.returncode


def quartiles(values):
    """[q1, median, q3] of the finite values, or None if there are none."""
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    if values.size == 0:
        return None
    return [float(q) for q in np.percentile(values, (25, 50, 75))]


def summarize(runs, metric_specs):
    """Reduce pairs of runs to per-metric statistics.

    ``runs`` is a list of pairs, each a dict {"ref": result, "change": result}
    of bench/run.py's last-line JSON (None for a run that printed none).
    ``metric_specs`` lists BENCHMARK.json's end-to-end entries (name, unit,
    better, bound). A metric missing from a run is null in the lists and
    left out of the medians, quartiles and win counts.

    Each metric gets two verdicts. ``gain``: the change is better in at
    least 9 of every 10 pairs, and its median beats the ref median by more
    than the width of the ref's IQR. ``regressed``: the change median is
    worse than the ref median by more than ``bound`` times the ref median.
    Both are false when a side has no value.
    """

    def value(result, name):
        if not result:
            return float("nan")
        return float(result.get("metrics", {}).get(name, {}).get("value", float("nan")))

    def listed(values):  # JSON has no NaN: a missing value is null
        return [float(v) if np.isfinite(v) else None for v in values]

    metrics = {}
    for spec in metric_specs:
        name = spec["name"]
        ref = np.array([value(pair["ref"], name) for pair in runs])
        change = np.array([value(pair["change"], name) for pair in runs])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = change / ref
        sign = 1.0 if spec["better"] == "higher" else -1.0
        entry = {"unit": spec["unit"], "better": spec["better"],
                 "ref": listed(ref), "change": listed(change), "ratio": listed(ratio),
                 "change_wins": int((sign * (change - ref) > 0).sum()),
                 "ref_wins": int((sign * (ref - change) > 0).sum())}
        q = {}
        for key, values in (("ref", ref), ("change", change), ("ratio", ratio)):
            q[key] = quartiles(values)
            entry[f"{key}_median"] = q[key] and q[key][1]
            entry[f"{key}_iqr"] = q[key] and [q[key][0], q[key][2]]
        both = q["ref"] is not None and q["change"] is not None
        gap = sign * (q["change"][1] - q["ref"][1]) if both else None
        entry["gain"] = bool(both and entry["change_wins"] * 10 >= 9 * len(runs)
                             and gap > q["ref"][2] - q["ref"][0])
        entry["regressed"] = bool(both and -gap > spec["bound"] * abs(q["ref"][1]))
        metrics[name] = entry

    results = [pair[side] for pair in runs for side in SIDES]
    incorrect = sum(not (r and r.get("correct")) for r in results)
    losses = {value(r, "loss_mean") for r in results}
    return {
        "pairs": len(runs),
        "metrics": metrics,
        "incorrect_runs": incorrect,
        "loss_mean_identical": len(losses) == 1 and all(np.isfinite(x) for x in losses),
    }


def environment(envs):
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_end": list(os.getloadavg()),
        "bench_env": envs,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--out", required=True, type=Path,
                        help="output file, by convention results/bench/BENCH_<tag>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    metric_specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs, order, exit_codes, envs = [], [], [], {}
    with tempfile.TemporaryDirectory(prefix="graphbench-ab-") as tmp:
        commit = export_ref(args.ref, tmp)
        trees = {"ref": tmp, "change": str(ROOT)}
        for k in range(args.pairs):
            sides = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in sides:
                result, env, code = run_bench(trees[side], args.workload,
                                              args.seed, args.seconds)
                pair[side] = result
                envs.setdefault(side, env)
                exit_codes.append(code)
                metric = ((result or {}).get("metrics") or {}).get("graphs_per_s", {})
                print(f"pair {k + 1}/{args.pairs} {side:<6} exit {code} "
                      f"graphs_per_s {metric.get('value', float('nan')):.4g}", flush=True)
            runs.append(pair)
            order.append(list(sides))

    summary = summarize(runs, metric_specs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ref": {"name": args.ref, "commit": commit},
        "change": {"tree": "working tree", "head": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain"))},
        "started": started,
        "order": order,
        "exit_codes": exit_codes,
        **summary,
        "environment": environment(envs),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")

    def fmt(x):
        return "nan" if x is None else f"{x:.6g}"

    for name, entry in summary["metrics"].items():
        print(f"{name:<14} median ref {fmt(entry['ref_median']):>10} "
              f"change {fmt(entry['change_median']):>10} "
              f"ratio {fmt(entry['ratio_median']):>8}  "
              f"change better in {entry['change_wins']}/{summary['pairs']}  "
              f"gain {entry['gain']}  regressed {entry['regressed']}")
    print(f"loss_mean identical: {summary['loss_mean_identical']}; "
          f"incorrect runs: {summary['incorrect_runs']}; written to {args.out}")
    failed = summary["incorrect_runs"] or any(exit_codes) or not summary["loss_mean_identical"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
