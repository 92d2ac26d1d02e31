// Every paper table and figure (Tables 1-8, Figs. 2-12, Sect. 3.3/3.4)
// from one shared Study, so each lazy pipeline stage runs once:
//   bench_paper [--only table2,fig7,...] [--threads N] [--json PATH] [--report PATH]
// --only picks experiments by name (they always run in EXPERIMENTS.md
// order); --json writes each experiment's metrics keyed "<name>/<key>",
// then the registry's counters and gauges; --report writes
// Study::run_report().
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "report/json.h"

namespace cbwt::bench {
namespace {

struct Experiment {
  std::string_view name;  ///< the --only name and the --json key prefix
  void (*run)(core::Study& study, IspRuns& isp_runs, Report& report);
};

constexpr Experiment kExperiments[] = {
    {"table1", table1_dataset},
    {"table2", table2_classification},
    {"fig2", fig2_requests_cdf},
    {"fig3", fig3_top_tlds},
    {"pdns_completeness", pdns_completeness},
    {"fig4", fig4_domains_per_ip},
    {"fig5", fig5_multidomain_ips},
    {"table3", table3_geo_agreement},
    {"table4", table4_maxmind_errors},
    {"geo_validation", geo_validation},
    {"fig6", fig6_continent_sankey},
    {"fig7", fig7_eu28_geolocation},
    {"fig8", fig8_country_sankey},
    {"table5", table5_localization},
    {"table6", table6_cloud_migration},
    {"fig9", fig9_sensitive_categories},
    {"fig10", fig10_sensitive_destinations},
    {"fig11", fig11_sensitive_confinement},
    {"table7", table7_isp_profiles},
    {"table8", table8_isp_confinement},
    {"fig12", fig12_isp_destinations},
};

/// Command-line options.
struct BenchOptions {
  std::optional<unsigned> threads;  ///< --threads; wins over CBWT_THREADS
  std::string json_path;    ///< empty = no machine-readable output
  std::string report_path;  ///< empty = no Study::run_report() dump
  std::vector<bool> selected = std::vector<bool>(std::size(kExperiments), true);
};

/// The experiments a comma-separated --only list names, as flags
/// parallel to kExperiments. An unknown name ends the process with exit
/// status 2 and a message naming it.
std::vector<bool> select_experiments(std::string_view list) {
  std::vector<bool> selected(std::size(kExperiments), false);
  for (const auto name : util::split(list, ',')) {
    const auto* it = std::find_if(std::begin(kExperiments), std::end(kExperiments),
                                  [&](const Experiment& e) { return e.name == name; });
    if (it == std::end(kExperiments)) {
      std::string known;
      for (const auto& experiment : kExperiments) {
        known += (known.empty() ? "" : ", ") + std::string(experiment.name);
      }
      std::fprintf(stderr, "unknown experiment '%.*s' in --only (known: %s)\n",
                   static_cast<int>(name.size()), name.data(), known.c_str());
      std::exit(2);
    }
    selected[static_cast<std::size_t>(it - std::begin(kExperiments))] = true;
  }
  return selected;
}

BenchOptions parse_options(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      options.threads = parse_threads(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      options.json_path = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      options.report_path = argv[++i];
    } else if (arg == "--only" && i + 1 < argc) {
      options.selected = select_experiments(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (supported: --only NAME[,NAME...], "
                   "--threads N, --json PATH, --report PATH)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  return options;
}

/// Writes `text` and a newline to `path`; a failed write ends the
/// process with exit status 1.
void write_file(const std::string& path, const std::string& text, const char* what) {
  std::ofstream out(path);
  out << text << '\n';
  if (!out) {
    std::fprintf(stderr, "failed to write %s to '%s'\n", what, path.c_str());
    std::exit(1);
  }
}

/// The --json document: {name, seed, scale, threads, wall_ms, metrics}.
std::string json_report(const core::StudyConfig& config, double wall_ms,
                        const Report& metrics) {
  report::JsonWriter json;
  json.begin_object();
  json.key("name").value("paper");
  json.key("seed").value(config.world.seed);
  json.key("scale").value(config.world.scale);
  json.key("threads").value(static_cast<std::uint64_t>(config.threads));
  json.key("wall_ms").value(wall_ms);
  json.key("metrics").begin_object();
  for (const auto& [key, value] : metrics) json.key(key).value(value);
  json.end_object();
  json.end_object();
  return json.str();
}

}  // namespace
}  // namespace cbwt::bench

int main(int argc, char** argv) {
  using namespace cbwt;
  const auto start = std::chrono::steady_clock::now();
  const auto options = bench::parse_options(argc, argv);
  obs::Registry registry;
  auto config = bench::bench_config();
  if (options.threads) config.threads = *options.threads;
  config.registry = &registry;
  bench::print_header("Tracing Cross Border Web Tracking: paper tables and figures", config);

  core::Study study(config);
  bench::IspRuns isp_runs(study);
  bench::Report metrics;
  for (std::size_t i = 0; i < std::size(bench::kExperiments); ++i) {
    if (!options.selected[i]) continue;
    const auto& experiment = bench::kExperiments[i];
    const auto first = metrics.size();
    experiment.run(study, isp_runs, metrics);
    for (auto k = first; k < metrics.size(); ++k) {
      metrics[k].first = std::string(experiment.name) + "/" + metrics[k].first;
    }
  }

  if (!options.json_path.empty()) {
    for (const auto& [name, value] : registry.counters()) {
      metrics.emplace_back(name, static_cast<double>(value));
    }
    for (const auto& [name, value] : registry.gauges()) metrics.emplace_back(name, value);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    bench::write_file(options.json_path, bench::json_report(config, wall_ms, metrics),
                      "JSON report");
  }
  if (!options.report_path.empty()) {
    bench::write_file(options.report_path, study.run_report(), "run report");
  }
  return 0;
}
