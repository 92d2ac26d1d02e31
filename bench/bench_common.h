// Shared plumbing for the reproduction harnesses in bench/: bench_paper
// (every paper table and figure, from one Study) and the separate
// ablation / design-choice / future-work harnesses. Each builds its
// Study from the CBWT_SCALE / CBWT_SEED / CBWT_THREADS environment
// variables (a malformed value is an error that names the setting),
// regenerates its tables, and prints the paper's reported numbers next
// to the measured ones. Absolute counts are scaled by design; the
// *shape* is the claim.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/study.h"
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

/// Standard bench config: 8% of the paper's request volume by default,
/// on CBWT_THREADS workers (unset = 1, serial; 0 = one per hardware
/// core; the results are bit-identical for every value).
/// CBWT_FAULT_RATE / CBWT_FAULT_SEED additionally arm the deterministic
/// fault-injection plan (unset = the zero-cost fault-free path), which
/// is how the EXPERIMENTS.md fault-rate sweeps drive any figure.
inline core::StudyConfig bench_config() {
  core::StudyConfig config;
  config.world.seed = env_or<std::uint64_t>("CBWT_SEED", 20180901, "decimal digits");
  config.world.scale = env_or<double>("CBWT_SCALE", 0.08, "a finite decimal scale");
  config.threads = env_or<unsigned>("CBWT_THREADS", config.threads, kThreadCount);
  config.fault_plan = parse_or_exit(fault::FaultPlan::from_env);
  return config;
}

/// For the harnesses that take no command-line arguments: any argument
/// ends the process with exit status 2 and a message naming it, so a
/// flag such as --threads cannot be silently ignored.
inline void reject_arguments(int argc, char** argv) {
  if (argc < 2) return;
  std::fprintf(stderr, "unknown argument '%s' (this harness takes no arguments)\n",
               argv[1]);
  std::exit(2);
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

/// Prints one experiment's title block in bench_paper, whose run header
/// (print_header) is printed once, before the first experiment.
inline void print_title(const char* title) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title);
  std::printf("==================================================================\n");
}

/// The --json metrics one paper experiment records, as (key, value) in
/// order; bench_paper prefixes every key with "<experiment>/".
using Report = std::vector<std::pair<std::string, double>>;

/// bench_paper's ISP-day NetFlow runs, memoized by (ISP, day): Fig. 12
/// reads the four April-4 days that Table 8 runs. core::Study does not
/// memoize them itself, because a store-backed run writes the day's
/// store files on every call.
class IspRuns {
 public:
  explicit IspRuns(core::Study& study) : study_(&study) {}

  /// The run of `isp` on `snapshot`'s day, made on first request.
  const core::Study::IspRun& get(const netflow::IspProfile& isp,
                                 const netflow::Snapshot& snapshot) {
    const auto key = std::make_pair(std::string(isp.name), snapshot.day);
    auto it = runs_.find(key);
    if (it == runs_.end()) {
      it = runs_.emplace(key, study_->run_isp_snapshot(isp, snapshot)).first;
    }
    return it->second;
  }

 private:
  core::Study* study_;
  std::map<std::pair<std::string, std::int32_t>, core::Study::IspRun> runs_;
};

// bench_paper's experiments (one file each under paper/), in
// EXPERIMENTS.md order; each prints its title, table and paper note.
void table1_dataset(core::Study& study, IspRuns& isp_runs, Report& report);
void table2_classification(core::Study& study, IspRuns& isp_runs, Report& report);
void fig2_requests_cdf(core::Study& study, IspRuns& isp_runs, Report& report);
void fig3_top_tlds(core::Study& study, IspRuns& isp_runs, Report& report);
void pdns_completeness(core::Study& study, IspRuns& isp_runs, Report& report);
void fig4_domains_per_ip(core::Study& study, IspRuns& isp_runs, Report& report);
void fig5_multidomain_ips(core::Study& study, IspRuns& isp_runs, Report& report);
void table3_geo_agreement(core::Study& study, IspRuns& isp_runs, Report& report);
void table4_maxmind_errors(core::Study& study, IspRuns& isp_runs, Report& report);
void geo_validation(core::Study& study, IspRuns& isp_runs, Report& report);
void fig6_continent_sankey(core::Study& study, IspRuns& isp_runs, Report& report);
void fig7_eu28_geolocation(core::Study& study, IspRuns& isp_runs, Report& report);
void fig8_country_sankey(core::Study& study, IspRuns& isp_runs, Report& report);
void table5_localization(core::Study& study, IspRuns& isp_runs, Report& report);
void table6_cloud_migration(core::Study& study, IspRuns& isp_runs, Report& report);
void fig9_sensitive_categories(core::Study& study, IspRuns& isp_runs, Report& report);
void fig10_sensitive_destinations(core::Study& study, IspRuns& isp_runs, Report& report);
void fig11_sensitive_confinement(core::Study& study, IspRuns& isp_runs, Report& report);
void table7_isp_profiles(core::Study& study, IspRuns& isp_runs, Report& report);
void table8_isp_confinement(core::Study& study, IspRuns& isp_runs, Report& report);
void fig12_isp_destinations(core::Study& study, IspRuns& isp_runs, Report& report);

}  // namespace cbwt::bench
