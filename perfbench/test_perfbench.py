"""Self-test of the benchmark's metric parsing and output check.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Runs on canned perfbench documents; it builds and runs nothing.
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import run  # noqa: E402


def iteration(wall_s, traced=False, outputs=None, error="", **extra):
    it = {"traced": traced, "setup_ns": 20_000_000, "wall_ns": int(wall_s * 1e9),
          "cpu_ns": int(wall_s * 1e9), "peak_rss_kb": 102_400, "items": 1000,
          "error": error, "outputs": outputs or {"matched": "7"}, "checks": {}}
    it.update(extra)
    return it


def span(name, depth, seconds, items=0, timed=True):
    return [name, depth, int(seconds * 1e9), items, timed]


class EndToEndTest(unittest.TestCase):
    def test_medians_over_untraced_iterations(self):
        doc = {"worlds": [
            {"world_seed": 1000, "setup_ns": 3_000_000_000,
             "iterations": [iteration(1.0), iteration(2.0), iteration(9.0, error="boom")]},
            {"world_seed": 1001, "setup_ns": 1_000_000_000, "iterations": [iteration(3.0)]},
        ]}
        m = run.end_to_end_metrics(doc, failed=1)
        self.assertEqual(m["wall_s"], 2.0)
        self.assertEqual(m["items_per_s"], 500.0)
        self.assertEqual(m["cpu_s"], 2.0)
        self.assertAlmostEqual(m["setup_s"], 2.0 + 0.02)
        self.assertEqual(m["peak_rss_mb"], 100.0)
        self.assertEqual(m["ok_share"], 0.75)
        self.assertEqual(set(m), set(run.END_TO_END_UNITS))

    def test_no_run_level_setup(self):
        doc = {"worlds": [{"world_seed": 1000, "iterations": [iteration(1.0)]}]}
        self.assertAlmostEqual(run.end_to_end_metrics(doc, failed=0)["setup_s"], 0.02)


class PerLayerTest(unittest.TestCase):
    def doc(self):
        setup = {"spans": [span("browser.collect", 0, 0.5, items=400, timed=False),
                           span("study/dataset", 1, 0.5, items=400, timed=False)],
                 "counters": {}, "gauges": {}}
        traced = iteration(1.0, traced=True, spans=[
            span("world.build", 0, 0.05, timed=False),
            span("study/classify", 1, 0.39, items=200),
            span("classify.run", 0, 0.4, items=200),
            span("netflow.snapshot", 0, 0.5, items=1000),
            span("netflow/generate", 1, 0.25, items=1000),
        ], counters={"cbwt_classify_requests_total": 200, "cbwt_classify_rule_hits_total": 50,
                     "cbwt_netflow_matched_total": 250,
                     "cbwt_netflow_join_probe_records_total": 1000},
            gauges={"cbwt_runtime_channel_consumer_stall_seconds": 0.125})
        return {"worlds": [{"world_seed": 1000, "setup": setup,
                            "iterations": [iteration(0.8), traced]}]}

    def test_layers_from_spans_counters_and_setup(self):
        m = run.per_layer_metrics(self.doc())
        self.assertEqual(m["browser.collect_s"], 0.5)  # from the world's set-up
        self.assertEqual(m["browser.requests"], 400)
        self.assertEqual(m["world.build_s"], 0.05)
        self.assertEqual(m["classify.run_s"], 0.4)
        self.assertEqual(m["classify.requests_per_s"], 500.0)
        self.assertEqual(m["classify.rule_hit_share"], 0.25)
        self.assertEqual(m["netflow.records"], 1000)
        self.assertEqual(m["netflow.generate_records_per_s"], 4000.0)
        self.assertEqual(m["join.match_ratio"], 0.25)
        self.assertEqual(m["runtime.consumer_stall_s"], 0.125)
        self.assertEqual(m["geoloc.probe_s"], 0.0)  # never ran
        self.assertAlmostEqual(m["bench.unattributed_s"], 0.1)
        self.assertAlmostEqual(m["bench.trace_overhead_ratio"], 1.25)
        self.assertEqual(set(m), set(run.layer_units()))


class OutputCheckTest(unittest.TestCase):
    def doc(self, *iterations, **world):
        return {"workload": "panel_collect", "seed": 1,
                "worlds": [{"world_seed": 1000, "iterations": list(iterations), **world}]}

    def test_consistent_outputs_pass(self):
        doc = self.doc(iteration(1.0), iteration(1.0, traced=True))
        self.assertEqual(run.check_outputs(doc, {}), [[], []])

    def test_differing_outputs_fail(self):
        doc = self.doc(iteration(1.0), iteration(1.0, outputs={"matched": "8"}))
        problems = run.check_outputs(doc, {})
        self.assertEqual(problems[0], [])
        self.assertIn("output digest", problems[1][0])

    def test_pinned_digest(self):
        doc = self.doc(iteration(1.0))
        good = run.digest({"matched": "7"})
        self.assertEqual(run.check_outputs(doc, {"panel_collect": {"1": [good]}}), [[]])
        self.assertTrue(run.check_outputs(doc, {"panel_collect": {"1": ["0" * 16]}})[0])

    def test_errors_and_invariants(self):
        doc = self.doc(
            iteration(1.0, error="boom"),
            iteration(1.0, checks={"requests": 5, "manifest_dataset_requests": 6}),
            iteration(1.0, checks={"store_dir_existed": 1}),
            iteration(1.0, traced=True, counters={"cbwt_netflow_join_resumed_total": 1}),
            iteration(1.0, checks={"checkpoint_bytes": 9}),
            checkpoint_bytes=10)
        problems = run.check_outputs(doc, {})
        self.assertEqual([len(p) for p in problems], [1, 1, 1, 1, 1])
        self.assertIn("error", problems[0][0])

    def test_result_line_shape(self):
        line = run.result_line(True, 3, 0, {"wall_s": 1.5}, run.END_TO_END_UNITS)
        self.assertEqual(list(line), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(line["metrics"]["wall_s"], {"value": 1.5, "unit": "s"})


class BenchmarkSpecTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class CompareTest(unittest.TestCase):
    def report(self, wall, **host):
        return {"workload": "panel_collect", "trace": 0,
                "host": {**{key: "x" for key in run.HOST_KEYS}, **host},
                "result": {"metrics": {"wall_s": {"value": wall, "unit": "s"}}}}

    def test_refuses_other_hosts(self):
        self.assertIsNone(compare.refusal([self.report(1.0), self.report(2.0)]))
        self.assertIn("compiler", compare.refusal([self.report(1.0),
                                                   self.report(1.0, compiler="clang++")]))

    def test_regression_past_bound(self):
        spec = {"wall_s": {"better": "lower", "bound": 0.1}}
        _, regressed = compare.compare([self.report(1.0)], [self.report(1.05)], spec)
        self.assertFalse(regressed)
        _, regressed = compare.compare([self.report(1.0)], [self.report(1.2)], spec)
        self.assertTrue(regressed)


if __name__ == "__main__":
    unittest.main()
