#!/usr/bin/env python3
"""The cbwt benchmark: builds perfbench, runs one workload, checks its
outputs and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A fuller report
with the host block, the per-iteration digests and sample counts goes to
.bench_build/results/, and a traced run also writes a Chrome trace there.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("panel_collect", "panel_reanalysis", "isp_day_store")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 160

# Host fields that must agree before two results may be compared; the
# revision and source digest identify what is being compared.
HOST_KEYS = ("nproc", "cpu_model", "compiler", "compiler_version", "build_type",
             "sanitizers")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


# --- end-to-end metrics ------------------------------------------------------

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


def iterations(doc):
    return [it for world in doc["worlds"] for it in world["iterations"]]


def end_to_end_metrics(doc, failed):
    """Medians over the run's successful untraced iterations."""
    attempted = len(iterations(doc))
    its = [it for it in iterations(doc) if not it["traced"] and not it["error"]]
    run_setups = [world["setup_ns"] / 1e9 for world in doc["worlds"] if "setup_ns" in world]
    return {
        "wall_s": median(it["wall_ns"] / 1e9 for it in its),
        "items_per_s": median(it["items"] / (it["wall_ns"] / 1e9) for it in its
                              if it["wall_ns"] > 0),
        "cpu_s": median(it["cpu_ns"] / 1e9 for it in its),
        # One world's set-up (a median over the run's worlds) plus one
        # iteration's own.
        "setup_s": median(run_setups) + median(it["setup_ns"] / 1e9 for it in its),
        "peak_rss_mb": median(it["peak_rss_kb"] / 1024 for it in its),
        "ok_share": (attempted - failed) / attempted if attempted else 0.0,
    }


# --- per-layer metrics -------------------------------------------------------

class Recording:
    """What one traced iteration (or a traced set-up) recorded."""

    def __init__(self, rec, checkpoint_bytes=0):
        self.spans = rec.get("spans", [])
        self.counters = rec.get("counters", {})
        self.gauges = rec.get("gauges", {})
        self.checkpoint_bytes = checkpoint_bytes
        self.names = {span[0] for span in self.spans}

    def span_s(self, name):
        return sum(span[2] for span in self.spans if span[0] == name) / 1e9

    def span_items(self, name):
        return sum(span[3] for span in self.spans if span[0] == name)

    def counter(self, name):
        return self.counters.get(name, 0)


def ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, span that shows the layer ran or None, value). Whether
# higher or lower is better, and the bounds, live in BENCHMARK.json.
LAYERS = {
    "world.build_s": ("s", "world.build", lambda r: r.span_s("world.build")),
    "browser.collect_s": ("s", "browser.collect",
                          lambda r: r.span_s("browser.collect")),
    "browser.requests": ("count", "browser.collect",
                         lambda r: r.span_items("browser.collect")),
    "pdns.replicate_s": ("s", "pdns.replicate", lambda r: r.span_s("pdns.replicate")),
    "pdns.ips": ("count", "pdns.replicate",
                 lambda r: r.span_items("study/pdns_replication")),
    "pdns.complete_s": ("s", "pdns.complete", lambda r: r.span_s("pdns.complete")),
    "pdns.completed_ips": ("count", "pdns.complete",
                           lambda r: r.span_items("pdns.complete")),
    "store.resume_s": ("s", "store.resume", lambda r: r.span_s("store.resume")),
    "store.checkpoint_bytes": ("bytes", "store.resume",
                               lambda r: r.checkpoint_bytes),
    "filterlist.compile_s": ("s", "filterlist.compile",
                             lambda r: r.span_s("filterlist.compile")),
    "classify.run_s": ("s", "classify.run", lambda r: r.span_s("classify.run")),
    "classify.requests_per_s": ("1/s", "classify.run",
                                lambda r: ratio(r.counter("cbwt_classify_requests_total"),
                                                r.span_s("classify.run"))),
    "classify.rule_hit_share": ("share", "classify.run",
                                lambda r: ratio(r.counter("cbwt_classify_rule_hits_total"),
                                                r.counter("cbwt_classify_requests_total"))),
    "classify.referrer_promotions": ("count", "classify.run",
                                     lambda r: r.counter(
                                         "cbwt_classify_referrer_promotions_total")),
    "geoloc.service_s": ("s", "geoloc.service", lambda r: r.span_s("geoloc.service")),
    "geoloc.probe_s": ("s", "geoloc.probe", lambda r: r.span_s("geoloc.probe")),
    "geoloc.probed_ips": ("count", "geoloc.probe",
                          lambda r: r.counter("cbwt_geoloc_probe_batch_ips_total")),
    "geoloc.cache_hit_ratio": ("share", "geoloc.probe",
                               lambda r: ratio(r.counter("cbwt_geoloc_cache_hits_total"),
                                               r.counter("cbwt_geoloc_cache_hits_total") +
                                               r.counter("cbwt_geoloc_cache_misses_total"))),
    "analysis.flows_s": ("s", "analysis.flows", lambda r: r.span_s("analysis.flows")),
    "analysis.flows": ("count", "analysis.flows", lambda r: r.span_items("analysis.flows")),
    "whatif.load_s": ("s", "whatif.load", lambda r: r.span_s("whatif.load")),
    "netflow.snapshot_s": ("s", "netflow.snapshot",
                           lambda r: r.span_s("netflow.snapshot")),
    "netflow.generate_s": ("s", "netflow.snapshot",
                           lambda r: r.span_s("netflow/generate")),
    "netflow.records": ("count", "netflow.snapshot",
                        lambda r: r.span_items("netflow.snapshot")),
    "netflow.generate_records_per_s": ("1/s", "netflow.snapshot",
                                       lambda r: ratio(r.span_items("netflow/generate"),
                                                       r.span_s("netflow/generate"))),
    "join.spill_s": ("s", "netflow.snapshot",
                     lambda r: r.span_s("netflow/join/partition")),
    "join.probe_s": ("s", "netflow.snapshot", lambda r: r.span_s("netflow/join/probe")),
    "join.spill_bytes": ("bytes", "netflow.snapshot",
                         lambda r: r.counter("cbwt_netflow_join_spill_bytes_total")),
    "join.spill_pages": ("count", "netflow.snapshot",
                         lambda r: r.counter("cbwt_netflow_join_spill_pages_total")),
    "join.probe_records": ("count", "netflow.snapshot",
                           lambda r: r.counter("cbwt_netflow_join_probe_records_total")),
    "join.match_ratio": ("share", "netflow.snapshot",
                         lambda r: ratio(r.counter("cbwt_netflow_matched_total"),
                                         r.counter("cbwt_netflow_join_probe_records_total"))),
    "join.resumed": ("count", "netflow.snapshot",
                     lambda r: r.counter("cbwt_netflow_join_resumed_total")),
    "store.bytes_written": ("bytes", None,
                            lambda r: r.counter("cbwt_store_bytes_written_total")),
    "store.bytes_read": ("bytes", None,
                         lambda r: r.counter("cbwt_store_bytes_read_total")),
    "store.checksum_windows": ("count", None,
                               lambda r: r.counter("cbwt_store_checksum_windows_total")),
    "runtime.producer_stalls": ("count", None,
                                lambda r: r.counter("cbwt_runtime_channel_producer_stalls_total")),
    "runtime.consumer_stalls": ("count", None,
                                lambda r: r.counter("cbwt_runtime_channel_consumer_stalls_total")),
    "runtime.producer_stall_s": ("s", None,
                                 lambda r: r.gauges.get(
                                     "cbwt_runtime_channel_producer_stall_seconds", 0.0)),
    "runtime.consumer_stall_s": ("s", None,
                                 lambda r: r.gauges.get(
                                     "cbwt_runtime_channel_consumer_stall_seconds", 0.0)),
    "runtime.tasks_stolen": ("count", None,
                             lambda r: r.gauges.get("cbwt_runtime_pool_tasks_stolen", 0.0)),
}
BENCH_LAYER_UNITS = {
    "bench.unattributed_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}


def layer_values(recording):
    """The layers a recording saw; a layer that did not run is absent."""
    return {name: fn(recording) for name, (_, span, fn) in LAYERS.items()
            if span is None or span in recording.names}


def unattributed_s(it):
    """Timed wall not covered by a top-level benchmark span."""
    covered = sum(span[2] for span in it["spans"] if span[1] == 0 and span[4])
    return max(0.0, (it["wall_ns"] - covered) / 1e9)


def per_layer_metrics(doc):
    """Medians over the traced iterations. A layer that ran in a world's
    set-up rather than its iterations counts with the set-up's value;
    a layer that never ran reads 0. The tracing overhead is the median
    over untraced/traced pairs run back to back on one world."""
    per_iteration, unattributed, overhead = [], [], []
    for world in doc["worlds"]:
        setup = layer_values(Recording(world["setup"])) if "setup" in world else {}
        its = world["iterations"]
        for untraced, traced in zip(its[::2], its[1::2]):
            if traced["error"]:
                continue
            values = layer_values(Recording(traced, world.get("checkpoint_bytes", 0)))
            per_iteration.append({**setup, **values})
            unattributed.append(unattributed_s(traced))
            if not untraced["error"]:
                overhead.append(ratio(traced["wall_ns"], untraced["wall_ns"]))
    metrics = {name: median(v[name] for v in per_iteration if name in v) for name in LAYERS}
    metrics["bench.unattributed_s"] = median(unattributed)
    metrics["bench.trace_overhead_ratio"] = median(overhead)
    return metrics


def layer_units():
    return {**{name: unit for name, (unit, _, _) in LAYERS.items()}, **BENCH_LAYER_UNITS}


# --- output check ------------------------------------------------------------

def digest(outputs):
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_outputs(doc, pinned):
    """Returns one list of problems per iteration (empty = passed).

    Every iteration's output digest must equal the one pinned for its
    world, when the seed has pinned digests, and the first digest of its
    world otherwise. The seed-free invariants hold on every seed."""
    pinned_worlds = pinned.get(doc["workload"], {}).get(str(doc["seed"]), [])
    problems = []
    for k, world in enumerate(doc["worlds"]):
        expected = pinned_worlds[k] if k < len(pinned_worlds) else None
        for it in world["iterations"]:
            problems.append(check_iteration(it, world, expected))
            if expected is None and not it["error"]:
                expected = digest(it["outputs"])
    return problems


def check_iteration(it, world, expected):
    found = []
    if it["error"]:
        return [f"error: {it['error']}"]
    got = digest(it["outputs"])
    if expected is not None and got != expected:
        found.append(f"world {world['world_seed']}: output digest {got} != {expected}")
    checks = it["checks"]
    if checks.get("requests") != checks.get("manifest_dataset_requests"):
        found.append("resumed request count differs from the checkpoint manifest")
    if checks.get("checkpoint_bytes", world.get("checkpoint_bytes")) != \
            world.get("checkpoint_bytes"):
        found.append("the checkpoint changed during the run")
    if checks.get("store_dir_existed", 0) != 0:
        found.append("the ISP store directory was not empty")
    if it.get("counters", {}).get("cbwt_netflow_join_resumed_total", 0) != 0:
        found.append("join_flows resumed from an earlier run")
    return found


# --- host block --------------------------------------------------------------

def cmake_cache(build_dir):
    cache = {}
    path = build_dir / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text(errors="replace").splitlines():
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, _, value = line.partition("=")
                cache[key.split(":", 1)[0]] = value
    return cache


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
        lines = out.stdout.strip().splitlines()
        return lines[0] if out.returncode == 0 and lines else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """Digest of the library sources, for checkouts without git."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in files + [ROOT / "CMakeLists.txt"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_block(build_dir):
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    revision = "none"
    if (ROOT / ".git").exists():
        revision = first_line(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": Path(compiler).resolve().name,
        "compiler_version": first_line([compiler, "--version"]),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "sanitizers": cache.get("CBWT_SANITIZE", "none"),
        "git_revision": revision,
        "source_digest": source_digest(),
    }


# --- build and run -----------------------------------------------------------

def build_dir_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir), *generator])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for step in steps:
        out = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S)
        if out.returncode != 0:
            return False
    return True


def run_workload(binary, args, work_dir, trace_file):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if args.trace:
        cmd += ["--trace-file", str(trace_file)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                         timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        log(f"perfbench exited with {out.returncode}")
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def result_line(correct, attempted, failed, metrics, units):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "core" / "study.h").exists():
        log(f"no cbwt sources under {ROOT}; run from a full checkout")
        return 2
    out_root = build_dir_root()
    build_dir = out_root / "cmake"
    if not build(build_dir):
        log("build failed")
        return 1

    results = out_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = results / f"{args.workload}-seed{args.seed}.trace.json"
    work_dir = out_root / "work" / f"{stem}-{os.getpid()}"
    started = time.monotonic()
    try:
        doc = run_workload(build_dir / "perfbench", args, work_dir, trace_file)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if doc is None:
        return 1

    pinned = json.loads((HERE / "pinned.json").read_text())
    problems = check_outputs(doc, pinned)
    failed = sum(1 for found in problems if found)
    attempted = len(problems)
    if args.trace:
        metrics, units = per_layer_metrics(doc), layer_units()
    else:
        metrics, units = end_to_end_metrics(doc, failed), END_TO_END_UNITS
    line = result_line(failed == 0, attempted, failed, metrics, units)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_block(build_dir),
        "world_scale": doc["world_scale"],
        "netflow_scale": doc["netflow_scale"],
        "threads": doc["threads"],
        "process_s": time.monotonic() - started,
        "worlds": [world["world_seed"] for world in doc["worlds"]],
        "samples": sum(1 for it in iterations(doc) if it["traced"] == bool(args.trace)),
        # (world seed, traced, wall s, cpu s) of every iteration, in run order.
        "iterations": [[world["world_seed"], it["traced"], it["wall_ns"] / 1e9,
                        it["cpu_ns"] / 1e9] for world in doc["worlds"]
                       for it in world["iterations"]],
        "failed_share": failed / attempted if attempted else 0.0,
        "digests": [[digest(it["outputs"]) if not it["error"] else None
                     for it in world["iterations"]] for world in doc["worlds"]],
        "problems": problems,
        "result": line,
    }
    if args.trace:
        report["chrome_trace"] = str(trace_file)
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    for found in problems:
        for problem in found:
            log(f"output check failed: {problem}")
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['samples']} samples, failed_share {report['failed_share']:.3f}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
