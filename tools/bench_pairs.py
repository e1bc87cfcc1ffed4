"""Alternated parent/change benchmark pairs, written to a BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --label census_text \\
        --what "what the change does" --plan census=10 covers=10 monodromy=10 \\
        --claim census.wall_s

Exports the parent revision with `git archive`, and the change's tracked
files (`git ls-files`, as they stand in the working tree) into clean copies
under a temporary directory, so that neither run sees the other's caches or
`bench/out/`.  For each workload of the plan and each seed 1..k it runs
`bench/run.py --workload W --seed S --seconds T --trace 0` once in each copy,
with T the `run_seconds` of BENCHMARK.json, the parent first for odd seeds
and the change first for even seeds, one process at a time.  The last stdout
line of a run is its result.

`summarize` turns the runs into the file's keys: the medians per workload and
tree, the claim on one workload's metric over the seeds that ran in both
trees, and the ratios change / parent of the medians.  Without `--claim` the
record's claim is null: a change that claims no gain is recorded without one.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("parent", "change")
#: the end-to-end metrics of BENCHMARK.json and whether lower is better
METRICS = {"wall_s": True, "slowest_task_s": True, "work_per_s": False,
           "setup_s": True, "peak_rss_mb": True}
#: a claim needs at least this many pairs, and the change must win this
#: share of them
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def order_of(seed: int) -> tuple[str, str]:
    """The trees in the order they run for this seed: parent first when odd."""
    return TREES if seed % 2 else TREES[::-1]


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def _value(run, metric):
    return run["result"]["metrics"][metric]["value"]


def summarize(runs, claim_workload=None, claim_metric=None):
    """The summary keys of a BENCH file from a list of runs, each a dict with
    tree, workload, seed, code and result (the run's last stdout line, or
    None when it printed none).  Without a claim_workload the claim is None.

    median_by_workload[w][tree] holds the median of each metric over the
    tree's runs with a result, failed_frac (failed / attempted, pooled),
    correct (every run correct) and the number of runs.  The claim compares
    claim_metric on claim_workload seed by seed: a pair is a seed with a
    result in both trees, and the change wins a pair when its value is
    better.  median_drop is the relative improvement of the change's median.
    The claim is met only when every seed that ran is a pair, there are at
    least MIN_PAIRS pairs, the change wins at least MIN_WIN_SHARE of them,
    its median is better by more than the distance between the parent's
    quartiles, and its runs are all correct with no more failed operations
    than the parent's."""
    done = [r for r in runs if r.get("result")]
    medians = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        medians[w] = {}
        for tree in TREES:
            mine = [r for r in done if r["workload"] == w and r["tree"] == tree]
            if not mine:
                continue
            row = {m: round(statistics.median(_value(r, m) for r in mine), 4)
                   for m in METRICS}
            attempted = sum(r["result"]["attempted"] for r in mine)
            failed = sum(r["result"]["failed"] for r in mine)
            row["failed_frac"] = round(failed / attempted, 4) if attempted else 1.0
            row["correct"] = all(r["result"]["correct"] for r in mine)
            row["runs"] = len(mine)
            medians[w][tree] = row

    ratios = {w: {m: round(rows["change"][m] / rows["parent"][m], 3)
                  for m in METRICS if rows["parent"][m]}
              for w, rows in medians.items() if set(rows) == set(TREES)}
    out = {"median_by_workload": medians, "claim": None,
           "ratios_change_over_parent": ratios}
    if claim_workload is None:
        return out
    lower = METRICS[claim_metric]
    mine = {tree: {r["seed"]: r["result"] for r in done
                   if r["workload"] == claim_workload and r["tree"] == tree}
            for tree in TREES}
    ran = {r["seed"] for r in runs if r["workload"] == claim_workload}
    seeds = sorted(set(mine["parent"]) & set(mine["change"]))
    parent = [mine["parent"][s]["metrics"][claim_metric]["value"] for s in seeds]
    change = [mine["change"][s]["metrics"][claim_metric]["value"] for s in seeds]
    failed = {tree: sum(mine[tree][s]["failed"] for s in seeds) for tree in TREES}
    claim = {"metric": f"{claim_workload} {claim_metric}", "seeds": len(ran),
             "pairs": len(seeds), "failed": failed}
    if seeds:
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pm, cm = statistics.median(parent), statistics.median(change)
        pq, cq = _quartiles(parent), _quartiles(change)
        gain = pm - cm if lower else cm - pm
        claim.update({
            "change_wins": wins,
            "parent_median": round(pm, 4), "change_median": round(cm, 4),
            "parent_quartiles": [round(x, 4) for x in pq],
            "parent_iqr": round(pq[1] - pq[0], 4),
            "change_quartiles": [round(x, 4) for x in cq],
            "median_drop": round(gain / pm, 3),
            "met": (len(seeds) == len(ran) and len(seeds) >= MIN_PAIRS
                    and wins >= MIN_WIN_SHARE * len(seeds)
                    and gain > pq[1] - pq[0]
                    and failed["change"] <= failed["parent"]
                    and all(mine["change"][s]["correct"] for s in seeds)),
        })
    else:
        claim["met"] = False
    out["claim"] = claim
    return out


def export_parent(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def export_change(dest: Path) -> None:
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z"],
                           check=True, capture_output=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_one(tree_dir: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree_dir, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"code": proc.returncode, "result": result}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": f"{cpu}, {os.cpu_count()} vCPUs", "python": platform.python_version()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--what", required=True, help="one line on what the change does")
    p.add_argument("--plan", nargs="+", required=True, metavar="WORKLOAD=PAIRS")
    p.add_argument("--claim", metavar="WORKLOAD.METRIC",
                   help="the metric the change claims to improve; none by default")
    args = p.parse_args(argv)
    args.plan = [(w, int(k)) for w, k in (item.split("=") for item in args.plan)]
    args.claim = tuple(args.claim.split(".")) if args.claim else ()
    if args.claim and args.claim[1] not in METRICS:
        p.error(f"unknown metric {args.claim[1]}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                         check=True, capture_output=True, text=True).stdout.strip()
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {tree: Path(tmp) / tree for tree in TREES}
        export_parent(sha, trees["parent"])
        export_change(trees["change"])
        for workload, pairs in args.plan:
            for seed in range(1, pairs + 1):
                for tree in order_of(seed):
                    run = {"tree": tree, "workload": workload, "seed": seed,
                           **run_one(trees[tree], workload, seed, seconds)}
                    runs.append(run)
                    value = run["result"] and _value(run, "wall_s")
                    print(f"{workload} seed {seed} {tree}: code {run['code']}, "
                          f"wall_s {value}", file=sys.stderr, flush=True)
    plan = ", ".join(f"{w}: seeds 1-{k}" for w, k in args.plan)
    record = {
        "label": args.label,
        "what": f"{args.what}, against the parent commit {sha}",
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} "
                   "--trace 0, run in a clean copy of each tree",
        "protocol": f"{plan}; one parent/change pair per seed, parent first for odd "
                    "seeds and change first for even seeds; one process at a time",
        "machine": machine(),
        **summarize(runs, *args.claim),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    claim = record["claim"]
    print(f"wrote {path}; " + (f"claim met: {claim['met']}" if claim else "no claim"),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
