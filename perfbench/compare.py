#!/usr/bin/env python3
"""Compares two sets of perfbench reports (.bench_build/results/*.json).

    python3 perfbench/compare.py --base A.json [A2.json ...] --new B.json [B2.json ...]

Each side's value of a metric is its median over that side's reports.
Refuses (exit 2) to compare reports whose host blocks differ in any of
run.HOST_KEYS, or that ran different workloads or modes. Otherwise prints
every metric with both medians and the change, and exits 1 when an
end-to-end metric got worse by more than its bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own module)


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def refusal(reports):
    """Why these reports must not be compared, or None."""
    first = reports[0]
    for report in reports[1:]:
        for key in run.HOST_KEYS:
            if report["host"].get(key) != first["host"].get(key):
                return (f"host field '{key}' differs: {first['host'].get(key)!r} vs "
                        f"{report['host'].get(key)!r}")
        for key in ("workload", "trace"):
            if report[key] != first[key]:
                return f"'{key}' differs: {first[key]!r} vs {report[key]!r}"
    return None


def side_medians(reports):
    names = reports[0]["result"]["metrics"]
    return {name: statistics.median(r["result"]["metrics"][name]["value"] for r in reports)
            for name in names}


def compare(base, new, spec):
    """Rows of (metric, base, new, change, bound, verdict) and whether any
    end-to-end metric regressed past its bound."""
    rows, regressed = [], False
    for name, base_value in side_medians(base).items():
        new_value = side_medians(new)[name]
        entry = spec.get(name, {})
        change = (new_value - base_value) / base_value if base_value else 0.0
        worse = -change if entry.get("better") == "higher" else change
        bound = entry.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "REGRESSION" if worse > bound else "ok"
            regressed |= worse > bound
        rows.append((name, base_value, new_value, change, bound, verdict))
    return rows, regressed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    reason = refusal(base + new)
    if reason is not None:
        print(f"compare: refused: {reason}", file=sys.stderr)
        return 2
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    rows, regressed = compare(base, new, spec)
    print(f"{base[0]['workload']} (trace {base[0]['trace']}): "
          f"{len(base)} base vs {len(new)} new reports")
    for name, b, n, change, bound, verdict in rows:
        limit = f"bound {bound:.2f}" if bound is not None else ""
        print(f"  {name:<32} {b:>14.6g} {n:>14.6g} {change:>+8.1%}  {limit:<11} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
