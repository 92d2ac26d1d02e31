#!/usr/bin/env bash
# Runs every fuzz harness against its seed corpus.
#
#   tools/run_fuzzers.sh [build-dir] [seconds-per-harness]
#
# With clang-built harnesses (real libFuzzer) this drives
# -max_total_time; with the gcc standalone driver it replays the corpus
# in a timed mutation loop (CBWT_FUZZ_SECONDS). Exit is non-zero as
# soon as any harness crashes. Build first with e.g.:
#   cmake --preset fuzz && cmake --build --preset fuzz -j
set -euo pipefail

build_dir=${1:-build-fuzz}
seconds=${2:-60}
repo_root=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo_root"

declare -A corpus=(
  [fuzz_url]=fuzz/corpus/url
  [fuzz_rule]=fuzz/corpus/rule
  [fuzz_netflow_record]=fuzz/corpus/netflow
  [fuzz_store_superblock]=fuzz/corpus/store_superblock
  [fuzz_flow_page]=fuzz/corpus/flow_page
  [fuzz_manifest]=fuzz/corpus/manifest
)

for harness in fuzz_url fuzz_rule fuzz_netflow_record fuzz_store_superblock \
               fuzz_flow_page fuzz_manifest; do
  bin="$build_dir/fuzz/$harness"
  if [ ! -x "$bin" ]; then
    echo "run_fuzzers: $bin not built (configure with -DCBWT_BUILD_FUZZERS=ON)" >&2
    exit 1
  fi
  echo "=== $harness (${seconds}s on ${corpus[$harness]}) ==="
  # Capture the replay status explicitly: `set -e` is silently disabled
  # when this script runs inside an if/|| context (CI wrappers do), which
  # would swallow a crashing gcc-driver replay.
  status=0
  if "$bin" -help=1 2>/dev/null | grep -q libFuzzer; then
    "$bin" -max_total_time="$seconds" -timeout=10 "${corpus[$harness]}" || status=$?
  else
    CBWT_FUZZ_SECONDS="$seconds" "$bin" "${corpus[$harness]}" || status=$?
  fi
  if [ "$status" -ne 0 ]; then
    echo "run_fuzzers: $harness failed with exit status $status" >&2
    exit "$status"
  fi
done
echo "run_fuzzers: all harnesses completed without a crash"
