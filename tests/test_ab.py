"""The A/B runner's summary, on synthetic pairs; no benchmark is run."""

import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

SPECS = [{"name": "graphs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
         {"name": "graph_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
         {"name": "loss_mean", "unit": "nats", "better": "lower", "bound": 0.2}]


def result(gps, p50, loss=1.5, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {"graphs_per_s": {"value": gps, "unit": "1/s"},
                        "graph_ms_p50": {"value": p50, "unit": "ms"},
                        "loss_mean": {"value": loss, "unit": "nats"}}}


def pairs(ref_gps, change_gps, **change_kwargs):
    return [{"ref": result(r, 1000.0 / r), "change": result(c, 1000.0 / c, **change_kwargs)}
            for r, c in zip(ref_gps, change_gps)]


def test_medians_quartiles_ratios_and_wins():
    summary = ab.summarize(pairs([100, 110, 120, 130, 140], [150, 110, 180, 195, 210]), SPECS)
    gps = summary["metrics"]["graphs_per_s"]
    assert summary["pairs"] == 5
    assert gps["ref"] == [100.0, 110.0, 120.0, 130.0, 140.0]
    assert gps["ref_median"] == 120.0 and gps["ref_iqr"] == [110.0, 130.0]
    assert gps["change_median"] == 180.0 and gps["change_iqr"] == [150.0, 195.0]
    assert gps["ratio"] == [1.5, 1.0, 1.5, 1.5, 1.5]
    assert gps["ratio_median"] == 1.5 and gps["ratio_iqr"] == [1.5, 1.5]
    # the tied pair counts for neither side
    assert gps["change_wins"] == 4 and gps["ref_wins"] == 0
    # lower is better for a latency: the same pairs are wins there too
    p50 = summary["metrics"]["graph_ms_p50"]
    assert p50["change_wins"] == 4 and p50["ref_wins"] == 0
    assert math.isclose(p50["ratio_median"], 1.0 / 1.5)
    assert summary["loss_mean_identical"] and summary["incorrect_runs"] == 0


def test_loss_mismatch_and_incorrect_runs_are_reported():
    summary = ab.summarize(pairs([100, 100], [90, 110], loss=1.5 + 2 ** -40), SPECS)
    assert not summary["loss_mean_identical"]
    assert summary["metrics"]["graphs_per_s"]["change_wins"] == 1
    assert summary["metrics"]["graphs_per_s"]["ref_wins"] == 1

    runs = pairs([100, 100], [90, 110], correct=False)
    runs.append({"ref": result(100, 10.0), "change": None})
    summary = ab.summarize(runs, SPECS)
    assert summary["incorrect_runs"] == 3
    # a run that printed no result leaves a gap, not a NaN, and no win
    gps = summary["metrics"]["graphs_per_s"]
    assert gps["change"][2] is None and gps["ratio"][2] is None
    assert gps["change_wins"] + gps["ref_wins"] == 2
    assert gps["change_median"] == 100.0
    assert not summary["loss_mean_identical"]
    json.dumps(summary, allow_nan=False)


def test_summary_is_strict_json_when_a_metric_is_absent():
    runs = pairs([100, 120], [110, 130])
    summary = ab.summarize(runs, SPECS + [{"name": "ok_frac", "unit": "frac",
                                           "better": "higher", "bound": 0.01}])
    ok = summary["metrics"]["ok_frac"]
    assert ok["ref"] == [None, None] and ok["ref_median"] is None
    assert ok["change_wins"] == 0
    assert ok["gain"] is False and ok["regressed"] is False
    text = json.dumps(summary, allow_nan=False)
    assert not math.isnan(json.loads(text)["metrics"]["graphs_per_s"]["ratio_median"])


BOUNDED = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25}]


def rss_pairs(ref_mb, change_mb):
    return [{"ref": {"correct": True, "metrics": {"peak_rss_mb": {"value": r}}},
             "change": {"correct": True, "metrics": {"peak_rss_mb": {"value": c}}}}
            for r, c in zip(ref_mb, change_mb)]


REF_MB = [170.0, 171.0, 170.5, 171.5, 170.2, 170.8, 171.2, 170.4, 170.6, 171.0]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_ref_iqr():
    # 9/10 pairs lower, the tie counts for neither side, median far below
    change = [142.0] * 9 + [REF_MB[9]]
    rss = ab.summarize(rss_pairs(REF_MB, change), BOUNDED)["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 9 and rss["ref_wins"] == 0
    assert rss["gain"] is True and rss["regressed"] is False


def test_eight_of_ten_wins_is_no_gain():
    change = [142.0] * 8 + [175.0, 175.0]
    rss = ab.summarize(rss_pairs(REF_MB, change), BOUNDED)["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 8
    assert rss["gain"] is False and rss["regressed"] is False


def test_gap_inside_the_ref_iqr_is_no_gain():
    # every pair is lower, but by less than the ref's quartile spread
    change = [r - 0.1 for r in REF_MB]
    rss = ab.summarize(rss_pairs(REF_MB, change), BOUNDED)["metrics"]["peak_rss_mb"]
    q1, q3 = rss["ref_iqr"]
    assert rss["change_wins"] == 10 and 0 < rss["ref_median"] - rss["change_median"] < q3 - q1
    assert rss["gain"] is False


def test_regressed_past_the_bound_only():
    # the bound is a share of the ref median (170.7 MB): 25% is 42.7 MB
    worse = ab.summarize(rss_pairs(REF_MB, [214.0] * 10), BOUNDED)["metrics"]["peak_rss_mb"]
    assert worse["regressed"] is True and worse["gain"] is False
    within = ab.summarize(rss_pairs(REF_MB, [213.0] * 10), BOUNDED)["metrics"]["peak_rss_mb"]
    assert within["regressed"] is False


def test_environment_records_usable_cpus_and_load_at_both_ends():
    env = ab.environment({"ref": None}, [0.5, 0.25, 0.125])
    assert env["loadavg_at_start"] == [0.5, 0.25, 0.125]
    assert len(env["loadavg_at_end"]) == 3
    assert isinstance(env["usable_cpus"], int) and 1 <= env["usable_cpus"] <= env["nproc"]
    assert json.loads(json.dumps(env)) == env
