// Shared plumbing for the reproduction harnesses in bench/: one binary
// per paper table/figure. Each binary builds a Study (scale overridable
// via the CBWT_SCALE / CBWT_SEED environment variables, worker threads
// via --threads / CBWT_THREADS; a malformed value is an error that names
// the setting), regenerates its table, and prints the
// paper's reported numbers next to the measured ones. Absolute counts
// are scaled by design; the *shape* is the claim. `--json PATH` writes a
// machine-readable run summary next to the human-readable table.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/study.h"
#include "obs/metrics.h"
#include "report/json.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace cbwt::bench {

/// Runs `parse`, a strict parse of one setting (util::parse_env). A
/// malformed value ends the process with the parser's message, which
/// names the setting, and exit status 2, before any study starts.
template <typename Parse>
auto parse_or_exit(Parse&& parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    std::exit(2);
  }
}

/// The environment variable `name` parsed strictly as a T, or `fallback`
/// when it is unset.
template <typename T>
T env_or(const char* name, T fallback, std::string_view expected) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  return parse_or_exit([&] { return util::parse_env<T>(name, value, expected); });
}

inline constexpr std::string_view kThreadCount = "a thread count (decimal digits)";

/// The value of a --threads flag.
inline unsigned parse_threads(std::string_view value) {
  return parse_or_exit([&] { return util::parse_env<unsigned>("--threads", value, kThreadCount); });
}

/// Command-line options shared by the harnesses. Threads defaults to the
/// CBWT_THREADS environment variable (1 = serial; 0 = hardware cores);
/// the study result is bit-identical for every value.
struct BenchOptions {
  unsigned threads = env_or<unsigned>("CBWT_THREADS", 1, kThreadCount);
  std::string json_path;    ///< empty = no machine-readable output
  std::string report_path;  ///< empty = no Study::run_report() dump
};

inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      options.threads = parse_threads(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      options.json_path = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      options.report_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (supported: --threads N, --json PATH, "
                   "--report PATH)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  return options;
}

/// Standard bench config: 8% of the paper's request volume by default.
/// CBWT_FAULT_RATE / CBWT_FAULT_SEED additionally arm the deterministic
/// fault-injection plan (unset = the zero-cost fault-free path), which
/// is how the EXPERIMENTS.md fault-rate sweeps drive any figure.
inline core::StudyConfig bench_config() {
  core::StudyConfig config;
  config.world.seed = env_or<std::uint64_t>("CBWT_SEED", 20180901, "decimal digits");
  config.world.scale = env_or<double>("CBWT_SCALE", 0.08, "a finite decimal scale");
  config.fault_plan = parse_or_exit(fault::FaultPlan::from_env);
  return config;
}

inline core::StudyConfig bench_config(const BenchOptions& options) {
  auto config = bench_config();
  config.threads = options.threads;
  return config;
}

/// Accumulates key metrics of one harness run and writes them as one
/// JSON object {name, seed, scale, threads, wall_ms, metrics{...}}.
/// Wall time runs from construction to write().
class JsonReport {
 public:
  JsonReport(std::string name, const core::StudyConfig& config)
      : name_(std::move(name)), seed_(config.world.seed), scale_(config.world.scale),
        threads_(config.threads), start_(std::chrono::steady_clock::now()) {}

  void metric(std::string key, double value) {
    metrics_.emplace_back(std::move(key), value);
  }

  /// Appends every counter and gauge of `registry` to the metric list
  /// (under its registry name), so a --json summary carries the run's
  /// observability state without a separate file.
  void metrics_from(const obs::Registry& registry) {
    for (const auto& [name, value] : registry.counters()) {
      metric(name, static_cast<double>(value));
    }
    for (const auto& [name, value] : registry.gauges()) metric(name, value);
  }

  /// No-op when `path` is empty (no --json given).
  void write(const std::string& path) const {
    if (path.empty()) return;
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    report::JsonWriter json;
    json.begin_object();
    json.key("name").value(name_);
    json.key("seed").value(seed_);
    json.key("scale").value(scale_);
    json.key("threads").value(static_cast<std::uint64_t>(threads_));
    json.key("wall_ms").value(wall_ms);
    json.key("metrics").begin_object();
    for (const auto& [key, value] : metrics_) json.key(key).value(value);
    json.end_object();
    json.end_object();
    std::ofstream out(path);
    out << json.str() << '\n';
    if (!out) {
      std::fprintf(stderr, "failed to write JSON report to '%s'\n", path.c_str());
      std::exit(1);
    }
  }

 private:
  std::string name_;
  std::uint64_t seed_;
  double scale_;
  unsigned threads_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Writes Study::run_report() to `path`; no-op when path is empty (no
/// --report given). The report carries one span per executed stage plus
/// every registry metric.
inline void write_run_report(core::Study& study, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << study.run_report() << '\n';
  if (!out) {
    std::fprintf(stderr, "failed to write run report to '%s'\n", path.c_str());
    std::exit(1);
  }
}

inline void print_header(const char* experiment, const core::StudyConfig& config) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("seed=%llu  scale=%.3f (of the paper's dataset volume)  threads=%u\n",
              static_cast<unsigned long long>(config.world.seed), config.world.scale,
              config.threads);
  std::printf("==================================================================\n");
}

inline void print_paper_note(const char* note) {
  std::printf("\n-- paper reference --\n%s\n", note);
}

}  // namespace cbwt::bench
