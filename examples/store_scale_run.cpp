// Example: NetFlow-only study on the store-backed path. Each ISP-day
// snapshot is spilled to a memory-mapped record file and streamed back
// in bounded chunks, so the sampled-flow volume is limited by disk, not
// RAM — this is the configuration for the paper's full-scale ISP runs.
//
// The full observability stack rides along: a metrics registry (so the
// report surfaces the cbwt_store_* I/O counters), the flight recorder,
// and the ProcStats sampler whose VmHWM gauge backs the peak-RSS
// self-check — a run 10x past the in-memory comfort zone must still
// fit under --max-rss-mb. --inspect-port serves /metrics, /report,
// /trace and /healthz live while the run is in flight.
//
//   store_scale_run --store-dir DIR [--netflow-scale S] [--world-scale S]
//                   [--isp NAME] [--day N] [--threads N]
//                   [--report PATH] [--trace PATH] [--max-rss-mb N]
//                   [--inspect-port N] [--linger-s N]
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/study.h"
#include "netflow/profile.h"
#include "obs/proc_stats.h"
#include "obs/trace_buffer.h"
#include "util/strings.h"

namespace {

// Counts the join's per-day spill subdirectory too.
std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// `value`, the setting `name` (a flag or CBWT_THREADS), parsed strictly
/// as a T (util::parse_env). A malformed value ends the process with exit
/// status 2 and a message naming the setting, before any study starts.
template <typename T>
T parse_setting(std::string_view name, const char* value, std::string_view expected) {
  try {
    return cbwt::util::parse_env<T>(name, value, expected);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "store_scale_run: %s\n", error.what());
    std::exit(2);
  }
}

constexpr std::string_view kScale = "a finite decimal scale";
constexpr std::string_view kCount = "decimal digits";

}  // namespace

int main(int argc, char** argv) {
  using namespace cbwt;

  std::string store_dir;
  std::string report_path;
  std::string trace_path;
  std::string isp_name = "DE-Broadband";
  double netflow_scale = 1e-2;
  double world_scale = 0.01;
  std::int32_t day = 267;
  // Thread count: --threads wins, else CBWT_THREADS (the same override
  // the bench harness honors), else 0 = one per hardware core.
  unsigned threads = 0;
  if (const char* env = std::getenv("CBWT_THREADS"); env != nullptr) {
    threads = parse_setting<unsigned>("CBWT_THREADS", env, kCount);
  }
  std::uint64_t max_rss_mb = 0;
  int inspect_port = -1;  // -1 = inspector off
  unsigned linger_s = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--store-dir" && value != nullptr) {
      store_dir = value;
      ++i;
    } else if (flag == "--report" && value != nullptr) {
      report_path = value;
      ++i;
    } else if (flag == "--trace" && value != nullptr) {
      trace_path = value;
      ++i;
    } else if (flag == "--isp" && value != nullptr) {
      isp_name = value;
      ++i;
    } else if (flag == "--netflow-scale" && value != nullptr) {
      netflow_scale = parse_setting<double>(flag, value, kScale);
      ++i;
    } else if (flag == "--world-scale" && value != nullptr) {
      world_scale = parse_setting<double>(flag, value, kScale);
      ++i;
    } else if (flag == "--day" && value != nullptr) {
      day = parse_setting<std::int32_t>(flag, value, "a day number (decimal digits)");
      ++i;
    } else if (flag == "--threads" && value != nullptr) {
      threads = parse_setting<unsigned>(flag, value, kCount);
      ++i;
    } else if (flag == "--max-rss-mb" && value != nullptr) {
      max_rss_mb = parse_setting<std::uint64_t>(flag, value, kCount);
      ++i;
    } else if (flag == "--inspect-port" && value != nullptr) {
      inspect_port = parse_setting<std::uint16_t>(flag, value, "a TCP port (0-65535)");
      ++i;
    } else if (flag == "--linger-s" && value != nullptr) {
      linger_s = parse_setting<unsigned>(flag, value, kCount);
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: store_scale_run --store-dir DIR [--netflow-scale S] "
                   "[--world-scale S] [--isp NAME] [--day N] [--threads N] "
                   "[--report PATH] [--trace PATH] [--max-rss-mb N] "
                   "[--inspect-port N] [--linger-s N]\n");
      return 2;
    }
  }
  if (store_dir.empty()) {
    std::fprintf(stderr, "store_scale_run: --store-dir is required\n");
    return 2;
  }

  const netflow::IspProfile* isp = nullptr;
  for (const auto& profile : netflow::default_isps()) {
    if (profile.name == isp_name) isp = &profile;
  }
  if (isp == nullptr) {
    std::fprintf(stderr, "store_scale_run: unknown ISP '%s'\n", isp_name.c_str());
    return 2;
  }

  obs::Registry registry;
  obs::TraceBuffer trace;
  obs::ProcSampler sampler(&registry, std::chrono::milliseconds(100));

  core::StudyConfig config;
  config.world.scale = world_scale;
  config.netflow.scale = netflow_scale;
  config.threads = threads;
  config.storage.mode = store::Mode::StoreBacked;
  config.storage.directory = store_dir;
  config.registry = &registry;
  config.trace = &trace;
  if (inspect_port >= 0) {
    config.inspector.enabled = true;
    config.inspector.port = static_cast<std::uint16_t>(inspect_port);
  }
  core::Study study(config);
  if (study.inspector() != nullptr) {
    std::printf("inspector listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(study.inspector()->port()));
    std::fflush(stdout);
  }

  const netflow::Snapshot snapshot{day, "day", 1.0};
  const auto run = study.run_isp_snapshot(*isp, snapshot);

  std::printf("store-backed NetFlow run: %s day %d\n", isp_name.c_str(), day);
  std::printf("  exported records   %" PRIu64 "\n", run.exported_records);
  std::printf("  matched records    %" PRIu64 "\n",
              static_cast<std::uint64_t>(run.collection.matched_records));
  std::printf("  tracking flows     %zu\n", run.flows.size());
  std::printf("  store dir bytes    %" PRIu64 "\n", directory_bytes(store_dir));
  // The out-of-core join's spill volume and fan-out (also in the JSON
  // report as cbwt_netflow_join_* counters).
  std::printf("  join partitions    %" PRIu64 "\n",
              registry.counter_value("cbwt_netflow_join_partitions_total"));
  std::printf("  join spill bytes   %" PRIu64 "\n",
              registry.counter_value("cbwt_netflow_join_spill_bytes_total"));
  std::printf("  join spill shards  %" PRIu64 "\n",
              registry.counter_value("cbwt_netflow_join_spill_shards_total"));
  // Per-phase wall time from the stage spans: generation (snapshot
  // write), pass 1 (parallel spill; 0 on a resumed run) and pass 2
  // (probe). These are the three legs the --threads override speeds up.
  double generate_ms = 0.0;
  double spill_ms = 0.0;
  double probe_ms = 0.0;
  for (const auto& span : registry.spans()) {
    if (span.name == "netflow/generate") generate_ms += span.wall_seconds * 1e3;
    if (span.name == "netflow/join/partition") spill_ms += span.wall_seconds * 1e3;
    if (span.name == "netflow/join/probe") probe_ms += span.wall_seconds * 1e3;
  }
  std::printf("  generate wall      %.1f ms\n", generate_ms);
  std::printf("  join spill wall    %.1f ms\n", spill_ms);
  std::printf("  join probe wall    %.1f ms\n", probe_ms);
  std::fflush(stdout);

  if (linger_s > 0) {
    // Keep the inspector serving a finished-but-live process so a smoke
    // harness can curl every endpoint. An un-notified wait_for lingers
    // without sleep_for (raw-thread lint) or extra threads.
    std::printf("  lingering          %us\n", linger_s);
    std::fflush(stdout);
    std::mutex linger_mutex;
    std::condition_variable linger_cv;
    std::unique_lock<std::mutex> lock(linger_mutex);
    linger_cv.wait_for(lock, std::chrono::seconds(linger_s));
  }

  // Stop sampling before the final export so the last sample (and the
  // final VmHWM envelope) is in the gauges the report serializes.
  sampler.stop();

  if (!report_path.empty()) {
    const std::string report = study.run_report();
    std::FILE* out = std::fopen(report_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "store_scale_run: cannot write %s\n", report_path.c_str());
      return 1;
    }
    std::fwrite(report.data(), 1, report.size(), out);
    std::fclose(out);
    std::printf("  report             %s (%zu bytes)\n", report_path.c_str(),
                report.size());
  }
  if (!trace_path.empty()) {
    std::ofstream trace_out(trace_path);
    trace_out << obs::to_chrome_trace(trace) << '\n';
    if (!trace_out) {
      std::fprintf(stderr, "store_scale_run: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("  trace              %s\n", trace_path.c_str());
  }

  // Peak resident set in kB (VmHWM from /proc/self/status, via the
  // shared ProcStats parser). VmHWM counts actual resident pages — not
  // reserved-but-untouched mmap ranges — so it measures exactly what
  // the store path claims to bound. 0 when /proc is unavailable.
  const std::uint64_t rss_kb = obs::vm_hwm_kb();
  std::printf("  peak RSS           %" PRIu64 " kB\n", rss_kb);
  if (max_rss_mb > 0 && rss_kb > max_rss_mb * 1024) {
    std::fprintf(stderr,
                 "store_scale_run: peak RSS %" PRIu64 " kB exceeds cap %" PRIu64
                 " MB\n",
                 rss_kb, max_rss_mb);
    return 1;
  }
  return 0;
}
