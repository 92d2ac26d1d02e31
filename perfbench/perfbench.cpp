// perfbench: the cbwt benchmark program. It runs one workload over
// core::Study through the Study's public stage getters, times each
// iteration from outside the library, and prints one JSON document of
// raw samples on stdout. run.py turns the samples into metrics and
// checks the outputs; see README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-file PATH]
//
// A run covers several synthetic worlds derived from the seed (world k
// of seed s has world seed s * 1000 + k). Each world gets its own
// set-up, then a share of the run's seconds in timed iterations; worlds
// left when the seconds run out are skipped.
//
// Untraced iterations run with no registry attached. With --trace 1,
// untraced and traced iterations alternate; a traced iteration attaches
// an obs::Registry and obs::TraceBuffer and wraps every getter in a
// benchmark-owned obs::ScopedSpan named after its layer ("browser.collect",
// "classify.run", ...). Getters run in dependency order, so a lazy stage
// never runs inside another stage's span.
#include <malloc.h>
#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/study.h"
#include "netflow/profile.h"
#include "obs/metrics.h"
#include "obs/proc_stats.h"
#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "report/json.h"
#include "store/checkpoint.h"

namespace {

using namespace cbwt;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

enum class Kind : std::uint8_t { PanelCollect, PanelReanalysis, IspDayStore };

struct Workload {
  std::string_view name;
  Kind kind;
  double world_scale;
  double netflow_scale;  ///< 0 = no ISP day
  unsigned threads;
  int worlds;  ///< worlds per untraced run; a traced run uses half
};

// Sized so that a 30 s run measures every world at least once on a
// 4-core host (README.md, "Workloads").
constexpr std::array<Workload, 3> kWorkloads = {{
    {"panel_collect", Kind::PanelCollect, 0.02, 0.0, 1, 12},
    {"panel_reanalysis", Kind::PanelReanalysis, 0.03, 0.0, 1, 3},
    {"isp_day_store", Kind::IspDayStore, 0.02, 1e-3, 2, 3},
}};

constexpr std::uint64_t kWorldSeedStride = 1000;
/// The ISP day of isp_day_store: DE-Broadband, day 267.
constexpr std::int32_t kIspDay = 267;
constexpr int kMaxIterationsPerWorld = 100;
/// Span index meaning "none of these spans is in the timed part".
constexpr std::size_t kSetupOnly = std::numeric_limits<std::size_t>::max();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_file;
};

std::uint64_t elapsed_ns(Clock::time_point begin) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - begin).count());
}

std::uint64_t process_cpu_ns() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ULL;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

/// Returns freed heap to the kernel and restarts VmHWM at the current
/// resident set, so the next vm_hwm_kb() reads the timed part's peak.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// Runs `fn` inside a benchmark-owned span whose item count is what `fn`
/// returns (0 when it returns nothing). A null registry makes the span a
/// no-op, so traced and untraced iterations share this path.
template <class Fn>
void layer(obs::Registry* registry, std::string_view name, Fn&& fn) {
  obs::ScopedSpan span(registry, name);
  if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
    fn();
  } else {
    span.set_items(static_cast<std::uint64_t>(fn()));
  }
}

// --- what a registry recorded ---------------------------------------------

/// Registry state at the start of an iteration; the iteration reports
/// what was recorded since.
struct Mark {
  std::size_t spans = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
};

void refresh_pool_stats(obs::Registry& registry, core::Study* study) {
  if (auto* pool = study != nullptr ? study->pool() : nullptr) {
    obs::record_pool_stats(&registry, *pool);
  }
}

Mark mark(obs::Registry* registry, core::Study& study) {
  Mark m;
  if (registry == nullptr) return m;
  refresh_pool_stats(*registry, &study);
  m.spans = registry->spans().size();
  for (auto& [name, value] : registry->counters()) m.counters[name] = value;
  for (auto& [name, value] : registry->gauges()) m.gauges[name] = value;
  return m;
}

/// What a registry recorded since a Mark: spans (those from index
/// `timed_begin` on closed in the timed part) and counter/gauge deltas.
struct Recorded {
  std::vector<obs::SpanRecord> spans;
  std::size_t timed_begin = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
};

Recorded recorded_since(obs::Registry& registry, core::Study* study, const Mark& from,
                        std::size_t timed_begin) {
  refresh_pool_stats(registry, study);
  Recorded r;
  const auto spans = registry.spans();
  r.spans.assign(spans.begin() + static_cast<std::ptrdiff_t>(from.spans), spans.end());
  r.timed_begin = timed_begin - std::min(timed_begin, from.spans);
  for (const auto& [name, value] : registry.counters()) {
    const auto it = from.counters.find(name);
    r.counters[name] = value - (it == from.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, value] : registry.gauges()) {
    const auto it = from.gauges.find(name);
    r.gauges[name] = value - (it == from.gauges.end() ? 0.0 : it->second);
  }
  return r;
}

void write_recorded(report::JsonWriter& json, const Recorded& r) {
  json.key("spans").begin_array();
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const auto& span = r.spans[i];
    json.begin_array()
        .value(span.name)
        .value(span.depth)
        .value(static_cast<std::uint64_t>(span.wall_seconds * 1e9))
        .value(span.items)
        .value(i >= r.timed_begin)
        .end_array();
  }
  json.end_array();
  json.key("counters").begin_object();
  for (const auto& [name, value] : r.counters) json.key(name).value(value);
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, value] : r.gauges) json.key(name).value(value);
  json.end_object();
}

// --- one iteration -----------------------------------------------------------

/// One measured iteration: its own set-up, then the timed part.
struct Iteration {
  bool traced = false;
  std::uint64_t setup_ns = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t items = 0;
  std::string error;
  /// Digest inputs (run.py hashes them) and seed-free invariants.
  std::vector<std::pair<std::string, std::string>> outputs;
  std::vector<std::pair<std::string, std::uint64_t>> checks;
  /// Traced only: what the registry recorded during the iteration.
  std::optional<Recorded> recorded;

  /// Valid while the iteration runs.
  obs::Registry* registry = nullptr;
  Mark from;
  std::size_t timed_span_begin = 0;
  Clock::time_point wall_begin;
  std::uint64_t cpu_begin = 0;

  void begin_timed() {
    reset_peak_rss();
    if (registry != nullptr) timed_span_begin = registry->spans().size();
    cpu_begin = process_cpu_ns();
    wall_begin = Clock::now();
  }
  void end_timed() {
    wall_ns = elapsed_ns(wall_begin);
    cpu_ns = process_cpu_ns() - cpu_begin;
    peak_rss_kb = obs::vm_hwm_kb();
  }
  void record(core::Study* study) {
    if (registry != nullptr) recorded = recorded_since(*registry, study, from, timed_span_begin);
  }
  void output(std::string key, std::uint64_t value) {
    outputs.emplace_back(std::move(key), std::to_string(value));
  }
};

void write_iteration(report::JsonWriter& json, const Iteration& it) {
  json.begin_object();
  json.key("traced").value(it.traced);
  json.key("setup_ns").value(it.setup_ns);
  json.key("wall_ns").value(it.wall_ns);
  json.key("cpu_ns").value(it.cpu_ns);
  json.key("peak_rss_kb").value(it.peak_rss_kb);
  json.key("items").value(it.items);
  json.key("error").value(it.error);
  json.key("outputs").begin_object();
  for (const auto& [key, value] : it.outputs) json.key(key).value(value);
  json.end_object();
  json.key("checks").begin_object();
  for (const auto& [key, value] : it.checks) json.key(key).value(value);
  json.end_object();
  if (it.recorded) write_recorded(json, *it.recorded);
  json.end_object();
}

core::StudyConfig study_config(const Workload& workload, std::uint64_t world_seed) {
  core::StudyConfig config;
  config.world.seed = world_seed;
  config.world.scale = workload.world_scale;
  config.netflow.scale = workload.netflow_scale;
  config.threads = workload.threads;
  return config;
}

void write_chrome_trace(const obs::TraceBuffer& trace, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << obs::to_chrome_trace(trace) << '\n';
}

// --- panel workloads -----------------------------------------------------

/// Builds a fresh study through pDNS replication and saves its
/// checkpoint to `dir`: the per-world set-up of panel_reanalysis.
void build_checkpoint(const Workload& workload, std::uint64_t world_seed,
                      const std::string& dir, obs::Registry* registry) {
  fs::remove_all(dir);
  core::StudyConfig config = study_config(workload, world_seed);
  config.registry = registry;
  core::Study study(config);
  layer(registry, "world.build", [&] {
    (void)study.world();
    (void)study.resolver();
  });
  layer(registry, "browser.collect", [&] { return study.dataset().requests.size(); });
  layer(registry, "pdns.replicate", [&] { (void)study.pdns_store(); });
  layer(registry, "store.checkpoint", [&] { study.save_checkpoint(dir); });
}

/// One panel iteration on a fresh Study: collection from scratch, or a
/// resume from `checkpoint` when it is non-empty.
Iteration panel_iteration(const Workload& workload, const Options& opt,
                          std::uint64_t world_seed, bool traced,
                          const std::string& checkpoint) {
  Iteration it;
  it.traced = traced;
  obs::Registry registry;
  std::optional<obs::TraceBuffer> trace;
  core::StudyConfig config = study_config(workload, world_seed);
  config.storage.resume_from = checkpoint;
  if (traced) {
    trace.emplace();
    config.registry = &registry;
    config.trace = &*trace;
    it.registry = &registry;
  }
  obs::Registry* reg = config.registry;

  const auto setup_begin = Clock::now();
  core::Study study(config);
  it.from = mark(reg, study);
  layer(reg, "world.build", [&] {
    (void)study.world();
    (void)study.resolver();
  });
  it.setup_ns = elapsed_ns(setup_begin);

  analysis::Confinement confinement;
  it.begin_timed();
  if (checkpoint.empty()) {
    layer(reg, "browser.collect", [&] { return study.dataset().requests.size(); });
    layer(reg, "pdns.replicate", [&] { (void)study.pdns_store(); });
  } else {
    layer(reg, "store.resume", [&] { return study.dataset().requests.size(); });
  }
  layer(reg, "filterlist.compile", [&] { (void)study.classifier(); });
  layer(reg, "classify.run", [&] { return study.outcomes().size(); });
  layer(reg, "pdns.complete", [&] { return study.completed_tracker_ips().size(); });
  layer(reg, "geoloc.service", [&] { (void)study.geo(); });
  std::vector<analysis::Flow> eu_flows;
  layer(reg, "analysis.flows", [&] {
    eu_flows = analysis::flows_from_region(study.flows(), geo::Region::EU28);
    return study.flows().size();
  });
  layer(reg, "geoloc.probe", [&] { confinement = study.analyzer().confinement(eu_flows); });
  layer(reg, "whatif.load", [&] { (void)study.localization(); });
  it.end_timed();

  const auto& requests = study.dataset().requests;
  it.items = requests.size();
  std::array<std::uint64_t, 4> methods{};
  for (const auto& outcome : study.outcomes()) {
    ++methods[static_cast<std::size_t>(outcome.method)];
  }
  for (std::size_t m = 0; m < methods.size(); ++m) {
    it.output("method_" + std::string(classify::to_string(static_cast<classify::Method>(m))),
              methods[m]);
  }
  it.output("completed_tracker_ips", study.completed_tracker_ips().size());
  it.output("eu28_flows", confinement.total);
  char share[32];
  std::snprintf(share, sizeof share, "%.9f", confinement.in_eu28);
  it.outputs.emplace_back("eu28_in_eu28_pct", share);
  if (!checkpoint.empty()) {
    const auto manifest = store::read_manifest(checkpoint + "/manifest.txt");
    it.checks.emplace_back("requests", requests.size());
    it.checks.emplace_back("manifest_dataset_requests",
                           manifest.get_u64("dataset_requests").value_or(0));
    it.checks.emplace_back("checkpoint_bytes", directory_bytes(checkpoint));
  }
  if (traced) {
    it.record(&study);
    write_chrome_trace(*trace, opt.trace_file);
  }
  return it;
}

// --- isp_day_store -------------------------------------------------------

/// A study whose panel prerequisites are built, ready to run ISP days
/// into its own store directory. Traced when `reg` is non-null.
struct IspRig {
  obs::Registry* reg = nullptr;
  std::optional<obs::TraceBuffer> trace;
  std::unique_ptr<core::Study> study;
  std::string store_dir;
};

std::unique_ptr<IspRig> build_isp_rig(const Workload& workload, std::uint64_t world_seed,
                                      obs::Registry* registry, const std::string& store_dir) {
  auto rig = std::make_unique<IspRig>();
  rig->reg = registry;
  rig->store_dir = store_dir;
  fs::remove_all(store_dir);
  core::StudyConfig config = study_config(workload, world_seed);
  config.storage.mode = store::Mode::StoreBacked;
  config.storage.directory = store_dir;
  if (registry != nullptr) {
    rig->trace.emplace();
    config.registry = registry;
    config.trace = &*rig->trace;
  }
  rig->study = std::make_unique<core::Study>(config);
  core::Study& study = *rig->study;
  obs::Registry* reg = rig->reg;
  layer(reg, "world.build", [&] {
    (void)study.world();
    (void)study.resolver();
  });
  layer(reg, "browser.collect", [&] { return study.dataset().requests.size(); });
  layer(reg, "pdns.replicate", [&] { (void)study.pdns_store(); });
  layer(reg, "filterlist.compile", [&] { (void)study.classifier(); });
  layer(reg, "classify.run", [&] { return study.outcomes().size(); });
  layer(reg, "pdns.complete", [&] { return study.completed_tracker_ips().size(); });
  return rig;
}

/// One ISP day into an empty store directory, deleted again afterwards:
/// a leftover join manifest would let join_flows resume and skip pass 1.
Iteration isp_iteration(IspRig& rig, const Options& opt, bool traced) {
  Iteration it;
  it.traced = traced;
  it.registry = rig.reg;
  const auto setup_begin = Clock::now();
  fs::remove_all(rig.store_dir);
  it.checks.emplace_back("store_dir_existed", fs::exists(rig.store_dir) ? 1 : 0);
  it.from = mark(rig.reg, *rig.study);
  it.setup_ns = elapsed_ns(setup_begin);

  const netflow::IspProfile& isp = netflow::default_isps().front();  // DE-Broadband
  const netflow::Snapshot snapshot{kIspDay, "day", 1.0};
  std::optional<core::Study::IspRun> run;
  it.begin_timed();
  layer(rig.reg, "netflow.snapshot", [&] {
    run.emplace(rig.study->run_isp_snapshot(isp, snapshot));
    return run->exported_records;
  });
  it.end_timed();

  it.items = run->exported_records;
  it.output("exported_records", run->exported_records);
  it.output("matched_records", run->collection.matched_records);
  it.output("tracker_ips_seen", run->collection.per_ip.size());
  std::uint64_t spill_bytes = 0;
  for (const auto& entry : fs::directory_iterator(rig.store_dir)) {
    if (entry.is_directory()) spill_bytes += directory_bytes(entry.path());
  }
  it.output("spill_bytes", spill_bytes);
  if (traced) {
    it.record(rig.study.get());
    write_chrome_trace(*rig.trace, opt.trace_file);
  }
  fs::remove_all(rig.store_dir);
  return it;
}

// --- one run -----------------------------------------------------------------

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--trace-file") {
      opt.trace_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && !opt.work_dir.empty() &&
         opt.seconds > 0.0;
}

using Iterate = std::function<Iteration(bool traced)>;

/// Sets up one world and returns how to iterate it. The set-up is timed
/// by the caller; with a non-null `setup_reg` it is also traced, and the
/// traced ISP study keeps recording into it, so it must outlive the
/// returned function.
Iterate setup_world(const Workload& workload, const Options& opt, std::uint64_t world_seed,
                    obs::Registry* setup_reg, report::JsonWriter& json) {
  switch (workload.kind) {
    case Kind::PanelCollect:
      return [&workload, &opt, world_seed](bool traced) {
        return panel_iteration(workload, opt, world_seed, traced, "");
      };
    case Kind::PanelReanalysis: {
      const std::string checkpoint = opt.work_dir + "/checkpoint";
      build_checkpoint(workload, world_seed, checkpoint, setup_reg);
      json.key("checkpoint_bytes").value(directory_bytes(checkpoint));
      return [&workload, &opt, world_seed, checkpoint](bool traced) {
        return panel_iteration(workload, opt, world_seed, traced, checkpoint);
      };
    }
    case Kind::IspDayStore: {
      std::shared_ptr<IspRig> untraced =
          build_isp_rig(workload, world_seed, nullptr, opt.work_dir + "/isp_store");
      std::shared_ptr<IspRig> traced_rig;
      if (setup_reg != nullptr) {
        traced_rig =
            build_isp_rig(workload, world_seed, setup_reg, opt.work_dir + "/isp_store_traced");
      }
      return [untraced, traced_rig, &opt](bool traced) {
        return isp_iteration(traced ? *traced_rig : *untraced, opt, traced);
      };
    }
  }
  return {};
}

/// Runs iterations of one world for `budget` seconds: at least one
/// (with tracing, one untraced/traced pair), and no more once the next
/// one would overrun the budget. Returns the seconds it took.
double measure_world(report::JsonWriter& json, const Options& opt, double budget,
                     const Iterate& iterate) {
  json.key("iterations").begin_array();
  const auto begin = Clock::now();
  for (int i = 0; i < kMaxIterationsPerWorld; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    Iteration it;
    try {
      it = iterate(traced);
    } catch (const std::exception& e) {
      it = Iteration{};
      it.traced = traced;
      it.error = e.what();
    }
    write_iteration(json, it);
    if (opt.trace && !traced) continue;  // finish the pair
    const double done = static_cast<double>(elapsed_ns(begin)) * 1e-9;
    const double step = done / (i + 1) * (opt.trace ? 2 : 1);
    if (done + step > budget) break;
  }
  json.end_array();
  return static_cast<double>(elapsed_ns(begin)) * 1e-9;
}

int run(const Options& opt) {
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (w.name == opt.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  fs::create_directories(opt.work_dir);
  const int worlds = opt.trace ? (workload->worlds + 1) / 2 : workload->worlds;

  report::JsonWriter json;
  json.begin_object();
  json.key("workload").value(workload->name);
  json.key("seed").value(opt.seed);
  json.key("world_scale").value(workload->world_scale);
  json.key("netflow_scale").value(workload->netflow_scale);
  json.key("threads").value(static_cast<std::uint64_t>(workload->threads));
  json.key("trace").value(opt.trace);
  json.key("worlds").begin_array();
  // The measured seconds are shared out over the worlds still to come,
  // so a slow host measures fewer worlds rather than running long.
  double measured = 0.0;
  for (int k = 0; k < worlds; ++k) {
    const double budget = (opt.seconds - measured) / (worlds - k);
    if (k > 0 && budget <= 0.0) break;
    const std::uint64_t world_seed = opt.seed * kWorldSeedStride + static_cast<std::uint64_t>(k);
    json.begin_object();
    json.key("world_seed").value(world_seed);
    obs::Registry setup_registry;
    obs::Registry* setup_reg = opt.trace ? &setup_registry : nullptr;
    const auto setup_begin = Clock::now();
    const Iterate iterate = setup_world(*workload, opt, world_seed, setup_reg, json);
    if (workload->kind != Kind::PanelCollect) {
      json.key("setup_ns").value(elapsed_ns(setup_begin));
    }
    if (workload->kind != Kind::PanelCollect && setup_reg != nullptr) {
      json.key("setup").begin_object();
      write_recorded(json, recorded_since(setup_registry, nullptr, Mark{}, kSetupOnly));
      json.end_object();
    }
    measured += measure_world(json, opt, budget, iterate);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  fs::remove_all(opt.work_dir);
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--trace-file PATH]\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
}
