#!/usr/bin/env python3
"""Unit tests for tools/check_pinned.py (run under ctest as `check_pinned_unittests`).

Feeds canned reports and expectations through the checker's command
line: the expectation's "metrics" keys are compared against a bench
--json report's top-level metrics, its "counters" keys against a
run_report's obs counters, both exactly.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import check_pinned  # noqa: E402


def bench_report():
    """Shape of a bench --json report (bench_paper --json)."""
    return {
        "name": "table2_classification",
        "seed": 20180901,
        "scale": 0.02,
        "threads": 2,
        "wall_ms": 1234.5,
        "metrics": {"abp_requests": 59551, "semi_requests": 31014},
    }


def run_report():
    """Shape of a Study::run_report() document (store_scale_run --report)."""
    return {
        "name": "cbwt_core_run_report",
        "seed": 20180901,
        "scale": 0.01,
        "threads": 1,
        "obs": {
            "counters": {
                "cbwt_netflow_matched_total": 10385647,
                "cbwt_netflow_join_spill_shards_total": 205,
                "cbwt_store_bytes_written_total": 999,
            },
            "gauges": {"cbwt_obs_proc_vm_hwm_bytes": 1.5e8},
        },
    }


class CheckPinned(unittest.TestCase):
    def run_main(self, report, expectation):
        with tempfile.TemporaryDirectory() as tmp:
            report_path = os.path.join(tmp, "report.json")
            expectation_path = os.path.join(tmp, "expectation.json")
            with open(report_path, "w") as f:
                json.dump(report, f)
            with open(expectation_path, "w") as f:
                json.dump(expectation, f)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ) as err:
                status = check_pinned.main([report_path, expectation_path])
            self.stderr = err.getvalue()
            return status

    def test_both_sections_match(self):
        report = run_report()
        report["metrics"] = bench_report()["metrics"]
        expectation = {
            "_comment": "ignored",
            "metrics": {"abp_requests": 59551},
            "counters": {
                "cbwt_netflow_matched_total": 10385647,
                "cbwt_netflow_join_spill_shards_total": 205,
            },
        }
        self.assertEqual(self.run_main(report, expectation), 0)

    def test_drifted_value_fails(self):
        expectation = {"counters": {"cbwt_netflow_matched_total": 10385648}}
        self.assertEqual(self.run_main(run_report(), expectation), 1)
        self.assertIn("cbwt_netflow_matched_total", self.stderr)

    def test_missing_key_fails(self):
        expectation = {"metrics": {"abp_requests": 59551, "untracked_requests": 26954}}
        self.assertEqual(self.run_main(bench_report(), expectation), 1)
        self.assertIn("untracked_requests", self.stderr)

    def test_counters_expectation_against_bench_report_fails(self):
        # A bench --json report has no obs counters: every pinned
        # counter is missing, never silently skipped.
        expectation = {"counters": {"cbwt_netflow_matched_total": 10385647}}
        self.assertEqual(self.run_main(bench_report(), expectation), 1)
        self.assertIn("missing counters key", self.stderr)

    def test_expectation_pinning_nothing_is_a_usage_error(self):
        self.assertEqual(self.run_main(run_report(), {"_comment": "empty"}), 2)

    def test_wrong_argument_count_exits_two(self):
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(check_pinned.main([]), 2)
            self.assertEqual(check_pinned.main(["only_one.json"]), 2)
            self.assertEqual(check_pinned.main(["a.json", "b.json", "c.json"]), 2)


if __name__ == "__main__":
    unittest.main()
