"""The benchmark's use of the library.

`bench/run.py --trace 1` stops with KeyError when a `<module>.<function>`
span behind a `.calls` or `.self_s` metric of BENCHMARK.json is no longer
defined, so renaming or deleting such a function breaks the benchmark.  An
API change that breaks a workload's task generation, a runner or a check
would show only as a failed benchmark run, so one pass of every workload
runs here with its checks.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import flatcover

ROOT = Path(__file__).resolve().parents[1]


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_per_layer_spans_are_defined():
    tracing = load_bench("tracer")
    for short in tracing.LAYER_MODULES:
        importlib.import_module(f"flatcover.{short}")
    tracer = tracing.Tracer()
    tracer.install(flatcover)
    try:
        defined = set(tracer.names)
    finally:
        tracer.uninstall()
    wanted = set()
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        span, _, stat = metric["name"].rpartition(".")
        module, _, function = span.partition(".")
        if stat in ("calls", "self_s") and module in tracing.LAYER_MODULES and function:
            wanted.add(span)
    assert "origami.is_reduced" in wanted and "origami.winding_index" in wanted
    assert not wanted - defined, f"spans no longer defined: {sorted(wanted - defined)}"


def test_every_workload_pass_runs_and_meets_its_checks():
    workloads = load_bench("workloads")
    for workload in workloads.WORKLOADS:
        for task in workloads.make_tasks(workload, 1):
            result = workloads.run_task(task)
            assert workloads.check(task, result) == [], (workload, task.kind, task.args)
