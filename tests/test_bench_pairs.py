"""The summary of `tools/bench_pairs.py`, on synthetic runs (no subprocess)."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(tree, seed, wall, workload="census", attempted=100, failed=0, correct=True):
    metrics = {"wall_s": wall, "slowest_task_s": wall / 2, "work_per_s": 1 / wall,
               "setup_s": 0.05, "peak_rss_mb": 25.0}
    return {"tree": tree, "workload": workload, "seed": seed, "code": 0,
            "result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {m: {"value": x, "unit": "s"} for m, x in metrics.items()}}}


def ten_pairs(parent, change):
    return [run(tree, seed, wall) for seed, (p, c) in enumerate(zip(parent, change), 1)
            for tree, wall in (("parent", p), ("change", c))]


PARENT = [0.100, 0.101, 0.099, 0.102, 0.100, 0.098, 0.103, 0.100, 0.101, 0.099]
CHANGE = [0.090, 0.091, 0.089, 0.092, 0.090, 0.088, 0.104, 0.090, 0.091, 0.089]


def test_runs_alternate_parent_first_on_odd_seeds():
    assert bench_pairs.order_of(1) == ("parent", "change")
    assert bench_pairs.order_of(2) == ("change", "parent")


def test_a_clear_gain_meets_the_claim():
    out = bench_pairs.summarize(ten_pairs(PARENT, CHANGE), "census", "wall_s")
    claim = out["claim"]
    assert claim["pairs"] == 10 and claim["change_wins"] == 9
    assert claim["parent_median"] == 0.1 and claim["change_median"] == 0.09
    # inclusive quartiles: 0.099 + (0.100 - 0.099) / 4 and 0.101
    assert claim["parent_quartiles"] == [0.0993, 0.101]
    assert claim["parent_iqr"] == pytest.approx(0.00175, abs=1e-4)
    assert claim["median_drop"] == 0.1 and claim["met"]
    row = out["median_by_workload"]["census"]["change"]
    assert row["runs"] == 10 and row["correct"] and row["failed_frac"] == 0.0
    ratios = out["ratios_change_over_parent"]["census"]
    assert ratios["wall_s"] == 0.9 and ratios["setup_s"] == 1.0
    # higher is better for work_per_s: the change's wins count the same way
    assert bench_pairs.summarize(ten_pairs(PARENT, CHANGE), "census",
                                 "work_per_s")["claim"]["change_wins"] == 9


def test_two_lost_pairs_are_not_met():
    change = list(CHANGE)
    change[0] = 0.105
    claim = bench_pairs.summarize(ten_pairs(PARENT, change), "census", "wall_s")["claim"]
    assert claim["change_wins"] == 8 and claim["median_drop"] == 0.095
    assert not claim["met"]


def test_a_change_run_without_result_is_not_met():
    runs = ten_pairs(PARENT, CHANGE)
    runs += [run("parent", 11, 0.1), {"tree": "change", "workload": "census",
                                      "seed": 11, "code": 1, "result": None}]
    claim = bench_pairs.summarize(runs, "census", "wall_s")["claim"]
    assert claim["seeds"] == 11 and claim["pairs"] == 10 and claim["change_wins"] == 9
    assert not claim["met"]
    # the same ten pairs alone meet it
    assert bench_pairs.summarize(runs[:-2], "census", "wall_s")["claim"]["met"]


def test_fewer_than_ten_pairs_are_not_met():
    claim = bench_pairs.summarize(ten_pairs(PARENT[:9], CHANGE[:9]), "census",
                                  "wall_s")["claim"]
    assert claim["pairs"] == 9 and claim["change_wins"] == 8 and not claim["met"]
    one = bench_pairs.summarize(ten_pairs([0.1], [0.09]), "census", "wall_s")["claim"]
    assert one["parent_iqr"] == 0 and one["change_wins"] == 1 and not one["met"]


def test_more_failed_operations_or_a_wrong_result_are_not_met():
    runs = ten_pairs(PARENT, CHANGE)
    runs[1] = run("change", 1, 0.090, failed=1)
    claim = bench_pairs.summarize(runs, "census", "wall_s")["claim"]
    assert claim["failed"] == {"parent": 0, "change": 1} and not claim["met"]
    runs[0] = run("parent", 1, 0.100, failed=1)
    assert bench_pairs.summarize(runs, "census", "wall_s")["claim"]["met"]
    runs[3] = run("change", 2, 0.091, correct=False)
    assert not bench_pairs.summarize(runs, "census", "wall_s")["claim"]["met"]


def test_a_slowdown_is_not_met():
    claim = bench_pairs.summarize(ten_pairs(CHANGE, PARENT), "census", "wall_s")["claim"]
    assert claim["change_wins"] == 1 and claim["median_drop"] < 0 and not claim["met"]


def test_a_drop_within_the_parents_spread_is_not_met():
    parent = [0.08, 0.12, 0.09, 0.11, 0.10, 0.08, 0.12, 0.09, 0.11, 0.10]
    change = [x * 0.97 for x in parent]
    claim = bench_pairs.summarize(ten_pairs(parent, change), "census", "wall_s")["claim"]
    assert claim["change_wins"] == 10 and claim["median_drop"] == 0.03
    assert claim["parent_iqr"] > 0.003 and not claim["met"]


def test_failed_runs_and_unpaired_seeds():
    runs = [run("parent", 1, 0.1), run("change", 1, 0.09),
            run("parent", 2, 0.1, attempted=50, failed=5, correct=False),
            {"tree": "change", "workload": "census", "seed": 2, "code": 2, "result": None},
            run("parent", 1, 0.2, workload="covers")]
    out = bench_pairs.summarize(runs, "census", "wall_s")
    assert out["claim"]["pairs"] == 1
    parent = out["median_by_workload"]["census"]["parent"]
    assert parent["runs"] == 2 and not parent["correct"]
    assert parent["failed_frac"] == round(5 / 150, 4)
    assert out["median_by_workload"]["census"]["change"]["runs"] == 1
    # covers ran in one tree only: it has medians but no ratios
    assert set(out["median_by_workload"]["covers"]) == {"parent"}
    assert set(out["ratios_change_over_parent"]) == {"census"}
    assert not bench_pairs.summarize(runs[2:], "census", "wall_s")["claim"]["met"]


def test_without_a_claim_the_record_claims_nothing(tmp_path, monkeypatch, capsys):
    runs = ten_pairs(PARENT, CHANGE)
    out = bench_pairs.summarize(runs)
    assert out["claim"] is None
    claimed = bench_pairs.summarize(runs, "census", "wall_s")
    assert out["median_by_workload"] == claimed["median_by_workload"]
    assert out["ratios_change_over_parent"] == claimed["ratios_change_over_parent"]

    # main writes a null claim and says so, with the git calls and the runs
    # stubbed out
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    walls = iter([0.100, 0.090, 0.091, 0.101])     # parent first on seed 1
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *a, **k: subprocess.CompletedProcess(a, 0, stdout="abc\n"))
    monkeypatch.setattr(bench_pairs, "export_parent", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "export_change", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run_one",
                        lambda tree_dir, w, seed, s: {
                            "code": 0, "result": run(None, seed, next(walls))["result"]})
    assert bench_pairs.main(["--parent", "HEAD~1", "--label", "none", "--what", "w",
                             "--plan", "census=2"]) == 0
    record = json.loads((tmp_path / "BENCH_none.json").read_text())
    assert record["claim"] is None and len(record["runs"]) == 4
    assert capsys.readouterr().err.rstrip().endswith("no claim")
