"""The benchmark's per-layer metrics name library functions by span.

`bench/run.py --trace 1` stops with KeyError when a `<module>.<function>`
span behind a `.calls` or `.self_s` metric of BENCHMARK.json is no longer
defined, so renaming or deleting such a function breaks the benchmark.
"""
import importlib
import importlib.util
import json
from pathlib import Path

import flatcover

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_per_layer_spans_are_defined():
    tracing = load_tracer()
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
