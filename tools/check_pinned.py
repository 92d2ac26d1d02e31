#!/usr/bin/env python3
"""Asserts a report matches a committed pinned expectation exactly.

Usage: check_pinned.py <report.json> <expectation.json>

The expectation file decides what is compared:

  "metrics"   keys are checked against the report's top-level "metrics"
              (a bench --json report, e.g. bench_paper's);
  "counters"  keys are checked against the report's "obs"."counters"
              (a Study::run_report() document, e.g. store_scale_run
              --report).

Only the pinned keys are compared; everything else in the report
(wall times, channel stats, /proc gauges, store I/O byte counts) is
ignored. Exact equality is required: the pipeline is deterministic at
every thread count, so any drift is a real behavior change, not noise.

Exit status: 0 if every pinned key matches, 1 on any drift or missing
key, 2 on bad usage or an expectation that pins nothing.
"""

import json
import sys


def report_section(report, section):
    if section == "metrics":
        return report.get("metrics", {})
    return report.get("obs", {}).get("counters", {})


def check(report, expectation):
    """Returns (number of keys checked, list of failure lines)."""
    checked = 0
    failures = []
    for section in ("metrics", "counters"):
        want = expectation.get(section)
        if want is None:
            continue
        got = report_section(report, section)
        checked += len(want)
        for key, value in sorted(want.items()):
            if key not in got:
                failures.append(f"missing {section} key {key} (expected {value})")
            elif got[key] != value:
                failures.append(f"{key}: got {got[key]}, expected {value}")
    return checked, failures


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(args[0]) as f:
        report = json.load(f)
    with open(args[1]) as f:
        expectation = json.load(f)

    checked, failures = check(report, expectation)
    if checked == 0:
        print(f"{args[1]}: pins no \"metrics\" or \"counters\" keys", file=sys.stderr)
        return 2
    if failures:
        print(f"Drift against {args[1]}:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"OK: {checked} pinned values in {args[1]} match exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
