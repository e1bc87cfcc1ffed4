"""Run one flatcover benchmark workload and print its metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Builds the workload's task list from the seed, then runs passes over it
until `--seconds` is used up (a pass is started only if it is expected to
finish in time; the first always runs), single-threaded in this process.
Every task's output is checked: the first pass against the paper's tables and
independent cross-checks, later passes against the first pass's output.

--trace 0 prints the end-to-end metrics: wall_s (median pass time),
slowest_task_s (median over passes of the slowest task), work_per_s, setup_s
(median over fresh interpreters, two started after each pass, of start,
import and input generation up to the first task) and peak_rss_mb.  Times
are at nominal core speed: a probe (speed.py) samples how fast the shared
core runs while each task runs, and the task's wall time is scaled by that
speed, so that other tenants' load on the host does not show as a change in
flatcover.  --trace 1 alternates untraced and traced passes and prints the
per-layer metrics of the traced ones, in plain wall seconds; it also writes
the spans of the last traced pass to bench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units are those of BENCHMARK.json.
A record of the run (environment, per-task wall times and speeds, set-up
times, failures) is written to bench/out/.  Exit code 2 means flatcover could
not be imported from the checkout's src/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES_PER_PASS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("census", "covers", "monodromy"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- passes -------------------------------------------------------------------

def run_pass(workloads, tasks, tracer=None, probe=None):
    """Run every task once.  Returns the pass: its wall seconds, one
    (seconds, result, error) per task, and the mean core speed the probe
    sampled during each task (1 without a probe)."""
    records, speeds = [], []
    if tracer is not None:
        tracer.clear()
        tracer.on = True
    if probe is not None:
        probe.start()
    try:
        start = time.perf_counter()
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.task = i
            mark = probe.mark() if probe is not None else 0
            t0 = time.perf_counter()
            try:
                result, error = workloads.run_task(task), None
            except Exception as exc:  # a failing task is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            records.append((time.perf_counter() - t0, result, error))
            speeds.append(probe.speed_since(mark) if probe is not None else 1.0)
        wall = time.perf_counter() - start
    finally:
        if probe is not None:
            probe.stop()
        if tracer is not None:
            tracer.on = False
    return {"wall": wall, "records": records, "speeds": speeds}


def measure(workloads, tasks, seconds, tracer=None, probe=None, between=None):
    """Passes until `seconds` is used up; with a tracer, untraced and traced
    passes alternate, starting untraced.  `between()` runs after every pass,
    on the same clock.  Returns one dict per pass."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        p = run_pass(workloads, tasks, tracer if traced else None, probe)
        p["traced"] = traced
        if traced:
            p["summary"] = tracer.summary()
        if between is not None:
            between()
        p["round"] = time.perf_counter() - t0
        passes.append(p)
        if len(passes) < (2 if tracer is not None else 1):
            continue
        next_traced = tracer is not None and not traced
        last = [q["round"] for q in passes if q["traced"] == next_traced][-1]
        if time.perf_counter() + last > deadline:
            return passes


def check_passes(workloads, tasks, passes):
    """Check every task of every pass.  Returns (failures, work per pass)."""
    failures = []
    first = passes[0]["records"]
    good, digests, work = [], [], 0
    for i, (task, (_, result, error)) in enumerate(zip(tasks, first)):
        if error is None:
            try:
                bad = workloads.check(task, result)
            except Exception as exc:  # a check that crashes fails the task
                bad = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            bad = [error]
        good.append(not bad)
        digests.append(workloads.digest(result) if error is None else None)
        if bad:
            failures.append({"pass": 0, "task": i, "kind": task.kind, "problems": bad})
        else:
            work += workloads.work(task, result)
    for n, p in enumerate(passes[1:], start=1):
        for i, (task, (_, result, error)) in enumerate(zip(tasks, p["records"])):
            if error is not None:
                problems = [error]
            elif not good[i]:
                problems = ["output of the first pass failed its check"]
            elif workloads.digest(result) != digests[i]:
                problems = ["output differs from the first pass"]
            else:
                continue
            failures.append({"pass": n, "task": i, "kind": task.kind, "problems": problems})
    return failures, work


def setup_probe(workload, seed):
    """Seconds at nominal core speed from spawning a fresh interpreter to
    its task list being ready; the interpreter reports the speed it saw."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    word, _, speed = line.decode().strip().partition(" ")
    if code or word != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed * float(speed)


# -- metrics ------------------------------------------------------------------

def nominal(p):
    """A pass's task times at nominal core speed (see speed.py)."""
    return [t * v for (t, _, _), v in zip(p["records"], p["speeds"])]


def end_to_end(passes, work, setup_times):
    """Medians over the passes of their times at nominal core speed, and
    over the set-up probes of theirs."""
    walls = [sum(nominal(p)) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "slowest_task_s": statistics.median(max(nominal(p)) for p in passes),
        "work_per_s": statistics.median(work / w for w in walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_of(name, spec):
    for layer, members in spec["roadmap_layers"].items():
        if name in members["spans"]:
            return layer
    module = name.split(".")[0]
    for layer, members in spec["roadmap_layers"].items():
        if module in members["modules"]:
            return layer
    return None


def per_layer(passes, spec, workload, tracer):
    """Per-layer metrics from the traced passes: calls and work counts of the
    first traced pass (they repeat exactly), self times as medians.  Spans
    that never ran count zero."""
    traced = [p for p in passes if p["traced"]]
    untraced_wall = statistics.median(p["wall"] for p in passes if not p["traced"])
    summaries = [p["summary"] for p in traced]
    names = tracer.names

    def self_s(name, s):
        return s["functions"].get(name, {}).get("self_s", 0.0)

    selfs = {n: statistics.median(self_s(n, s) for s in summaries) for n in names}
    first = summaries[0]
    m = {}
    for n in names:
        m[f"{n}.calls"] = first["functions"].get(n, {}).get("calls", 0)
        m[f"{n}.self_s"] = selfs[n]
    m.update({stat: first["counts"].get(stat, 0) for stat in tracer.work_stats()})
    members = first["counts"].get("origami.sl2z_orbit_forms.members", 0)
    m["origami.orbit.canon_per_member"] = (first["canonical_forms_in_orbits"] / members
                                           if members else 0.0)
    groups: dict[str, float] = {}
    for n in names:
        groups[n.split(".")[0]] = groups.get(n.split(".")[0], 0.0) + selfs[n]
        layer = layer_of(n, spec)
        if layer:
            groups[layer] = groups.get(layer, 0.0) + selfs[n]
    for g, v in groups.items():
        m[f"{g}.self_s"] = v
    traced_wall = statistics.median(p["wall"] for p in traced)
    # per traced pass: wall time not covered by any span, i.e. the
    # benchmark's own glue; the span self times add up to the rest
    unattributed = statistics.median(
        p["wall"] - sum(f["self_s"] for f in p["summary"]["functions"].values())
        for p in traced)
    self_sum = sum(selfs.values())
    dominant = max(names, key=selfs.get)
    layers = {g: v for g, v in groups.items() if g in spec["roadmap_layers"]}
    modules = {g: v for g, v in groups.items() if g not in spec["roadmap_layers"]}
    predicted = spec["workloads"][workload]
    dominant_layer = max(layers, key=layers.get)
    m.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1,
        "trace.unattributed_s": unattributed,
        "trace.spans": first["spans"],
        "trace.dominant_share": selfs[dominant] / self_sum,
        "trace.dominant_layer_matches": int(dominant_layer == predicted["predicted_layer"]),
        "trace.dominant_span_matches": int(dominant in predicted["predicted_dominant"]),
    })
    report = {
        "dominant_span": dominant,
        "dominant_module": max(modules, key=modules.get),
        "dominant_layer": dominant_layer,
        "predicted_span": predicted["predicted_dominant"],
        "predicted_layer": predicted["predicted_layer"],
        "self_sum_ok": 0 <= unattributed <= max(traced_wall - untraced_wall,
                                                0.02 * traced_wall),
        "top_spans": sorted(((round(v, 4), n) for n, v in selfs.items()), reverse=True)[:10],
    }
    return m, report


def select(values, wanted):
    """The metrics named in BENCHMARK.json, with their units."""
    missing = [w["name"] for w in wanted if w["name"] not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}


# -- environment --------------------------------------------------------------

def environment():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flatcover").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": sha,
            "source_sha256": src.hexdigest(), "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
        import speed
        import tracer as tracing
    except ImportError as exc:
        print(f"bench: cannot import flatcover from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    tasks = workloads.make_tasks(args.workload, args.seed)

    tracer = None
    setup_times = []

    def setup_probes():
        for _ in range(SETUP_PROBES_PER_PASS):
            setup_times.append(setup_probe(args.workload, args.seed))

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(sys.modules["flatcover"])
        passes = measure(workloads, tasks, args.seconds, tracer)
    else:
        setup_probe(args.workload, args.seed)   # warms the file cache; not counted
        passes = measure(workloads, tasks, args.seconds, probe=speed.SpeedProbe(),
                         between=setup_probes)
    failures, work = check_passes(workloads, tasks, passes)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "tasks": [[t.kind, repr(t.args)] for t in tasks],
              "work_per_pass": work, "work_unit": spec["workloads"][args.workload]["work_unit"],
              "pass_walls": [p["wall"] for p in passes],
              "task_seconds": [[t for t, _, _ in p["records"]] for p in passes],
              "task_speeds": [p["speeds"] for p in passes],
              "setup_seconds": setup_times,
              "failures": failures}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        values, report = per_layer(passes, spec, args.workload, tracer)
        metrics = select(values, bench["per_layer"])
        report["spans_file"] = tracer.write_spans(OUT / f"{args.workload}.spans")
        record["trace_report"] = report
        tracer.uninstall()
    else:
        metrics = select(end_to_end(passes, work, setup_times), bench["end_to_end"])
    record["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    attempted = len(tasks) * len(passes)
    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(tasks)} tasks, {work} {record['work_unit']} per pass")
    print(f"python {env['python']}, nproc {env['nproc']}, git {env['git_sha'][:12]}, "
          f"source {env['source_sha256'][:12]}")
    print(f"failed_frac {len(failures) / attempted:.4f} ({len(failures)} of {attempted} tasks)")
    if not args.trace:
        raw = sorted(p["wall"] for p in passes)
        print(f"pass wall time {statistics.median(raw):.4g} s (median; {raw[0]:.4g}..{raw[-1]:.4g}) "
              f"at a mean core speed of {statistics.fmean(v for p in passes for v in p['speeds']):.3f}")
    for f in failures:
        print(f"FAILED pass {f['pass']} task {f['task']} ({f['kind']}): {f['problems']}",
              file=sys.stderr)
    if args.trace:
        r = record["trace_report"]
        print(f"dominant span {r['dominant_span']} (predicted {' or '.join(r['predicted_span'])}), "
              f"module {r['dominant_module']}, layer {r['dominant_layer']} "
              f"(predicted {r['predicted_layer']}); span self times add up to the traced "
              f"wall time {'within' if r['self_sum_ok'] else 'NOT within'} the tracing overhead")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
