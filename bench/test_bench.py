"""Tests of the benchmark itself: seeded inputs, failure counting, tracing.

    python3 -m pytest bench/test_bench.py -q
"""
import json
import signal
import sys
import unittest
from pathlib import Path

import run
import speed
import tracer as tracing
import workloads
from flatcover import acceptance, classify, monodromy

# cheap tasks of each workload, so that a test can run whole passes
CHEAP = {
    "census": lambda t: t.kind == "orbit" and t.expect["n"] <= 9,
    "covers": lambda t: t.kind in ("covers_text", "cyclic")
    or (t.kind == "lift_orbit" and t.expect["m"] == 5),
    "monodromy": lambda t: t.kind in ("echoes", "sp4", "periods", "twists", "primitive")
    or (t.kind == "closure" and t.args[2] in (3, 4, 7)),
}


def cheap_tasks(workload, seed):
    return [t for t in workloads.make_tasks(workload, seed) if CHEAP[workload](t)]


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_task_list(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.make_tasks(w, 7), workloads.make_tasks(w, 7))

    def test_other_seed_other_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertNotEqual(workloads.make_tasks(w, 7), workloads.make_tasks(w, 8))

    def test_same_seed_same_work_and_outputs(self):
        for w in workloads.WORKLOADS:
            counts = []
            for _ in range(2):
                tasks = cheap_tasks(w, 3)
                passes = run.measure(workloads, tasks, 0)
                failures, work = run.check_passes(workloads, tasks, passes)
                self.assertEqual(failures, [])
                self.assertGreater(work, 0)
                counts.append((work, [workloads.digest(r) for _, r, _ in passes[0]["records"]]))
            self.assertEqual(counts[0], counts[1])

    def test_reference_tables_match_the_library(self):
        self.assertEqual(workloads.TABLE1, acceptance.TABLE1)
        self.assertEqual(workloads.TABLE2, acceptance.TABLE2)
        self.assertEqual(workloads.HYP_LABELS, classify.HYP_LABELS)


class FailureCounting(unittest.TestCase):
    def setUp(self):
        self.tasks = cheap_tasks("monodromy", 1)
        self.passes = [{"traced": False, **run.run_pass(workloads, self.tasks)}
                       for _ in range(2)]

    def index(self, kind):
        return next(i for i, t in enumerate(self.tasks) if t.kind == kind)

    def test_correct_outputs_pass(self):
        failures, _ = run.check_passes(workloads, self.tasks, self.passes)
        self.assertEqual(failures, [])

    def test_wrong_output_counts_as_failed(self):
        i = self.index("echoes")
        t, result, error = self.passes[0]["records"][i]
        D, e, hyp, odd = result[0]
        wrong = [[D, e, odd, hyp]] + result[1:]
        self.passes[0]["records"][i] = (t, wrong, error)
        failures, _ = run.check_passes(workloads, self.tasks, self.passes)
        # the wrong first output fails, and so does the later pass that
        # cannot be compared with a good output
        self.assertEqual([(f["pass"], f["task"]) for f in failures], [(0, i), (1, i)])

    def test_output_that_changes_between_passes_counts_as_failed(self):
        i = self.index("closure")
        t, result, error = self.passes[1]["records"][i]
        self.passes[1]["records"][i] = (t, {"order": result["order"] + 1}, error)
        failures, _ = run.check_passes(workloads, self.tasks, self.passes)
        self.assertEqual([(f["pass"], f["task"]) for f in failures], [(1, i)])

    def test_raising_task_counts_as_failed(self):
        original = workloads.RUNNERS["periods"]
        workloads.RUNNERS["periods"] = lambda: 1 / 0
        try:
            p = run.run_pass(workloads, self.tasks)
        finally:
            workloads.RUNNERS["periods"] = original
        failures, _ = run.check_passes(workloads, self.tasks, [{"traced": False, **p}])
        self.assertEqual([f["task"] for f in failures], [self.index("periods")])
        self.assertIn("ZeroDivisionError", failures[0]["problems"][0])


class SpeedProbing(unittest.TestCase):
    def test_probe_samples_speeds_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        probe = speed.SpeedProbe()
        p = run.run_pass(workloads, cheap_tasks("monodromy", 1), probe=probe)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(len(probe.speeds), 0)
        self.assertTrue(all(0 < v <= 1 for v in probe.speeds))
        self.assertTrue(all(0 < v <= 1 for v in p["speeds"]))
        self.assertTrue(all(n <= t for n, (t, _, _) in zip(run.nominal(p), p["records"])))

    def test_speed_without_samples(self):
        probe = speed.SpeedProbe()
        self.assertEqual(probe.speed_since(0), 1.0)
        probe.speeds.append(0.5)
        self.assertEqual(probe.speed_since(1), 0.5)


class Tracing(unittest.TestCase):
    def test_install_rebinds_copies_and_uninstall_restores(self):
        original = classify.orbit_partition
        t = tracing.Tracer()
        t.install(sys.modules["flatcover"])
        try:
            self.assertIs(classify.orbit_partition, monodromy.orbit_partition)
            self.assertIsNot(classify.orbit_partition, original)
            t.on = True
            classify.echoes_of_WD(17, 1)
            t.on = False
            s = t.summary()
        finally:
            t.uninstall()
        self.assertIs(classify.orbit_partition, original)
        self.assertIs(monodromy.orbit_partition, original)
        self.assertEqual(s["functions"]["classify.echoes_of_WD"]["calls"], 1)
        self.assertEqual(s["functions"]["monodromy.orbit_partition"]["calls"], 1)
        self.assertEqual(s["counts"]["monodromy.orbit_partition.vectors"], 15)
        self.assertEqual(len(t.names), len(set(t.names)))
        # self times add up to the time covered by the top-level span
        total = sum(f["self_s"] for f in s["functions"].values())
        self.assertAlmostEqual(total, s["top_level_s"], places=9)

    def test_traced_run_produces_every_per_layer_metric(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        spec = json.loads((Path(run.HERE) / "spec.json").read_text())
        listed = [m for g in spec["layer_metrics"] for m in g["metrics"]]
        self.assertEqual([m["name"] for m in bench["per_layer"]], listed)
        t = tracing.Tracer()
        t.install(sys.modules["flatcover"])
        try:
            tasks = cheap_tasks("covers", 2)
            passes = run.measure(workloads, tasks, 0, t)
        finally:
            t.uninstall()
        values, _ = run.per_layer(passes, spec, "covers", t)
        run.select(values, bench["per_layer"])    # raises if one is missing
        self.assertGreater(values["origami.sl2z_orbit_forms.members"], 0)
        self.assertGreater(values["origami.orbit.canon_per_member"], 1)


if __name__ == "__main__":
    unittest.main()
