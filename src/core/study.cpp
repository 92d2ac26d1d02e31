#include "core/study.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <unordered_set>

#include "browser/dataset_store.h"
#include "netflow/join.h"
#include "netflow/snapshot_store.h"
#include "store/dataset.h"
#include "obs/export.h"
#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "pdns/checkpoint.h"
#include "report/json.h"
#include "runtime/parallel.h"
#include "store/checkpoint.h"
#include "store/mapped_file.h"
#include "util/contract.h"

namespace cbwt::core {

Study::Study(StudyConfig config) : config_(std::move(config)) {
  if (config_.registry != nullptr && config_.trace != nullptr) {
    config_.registry->set_trace_buffer(config_.trace);
  }
  if (config_.inspector.enabled) {
    obs::InspectorHandlers handlers;
    if (config_.registry != nullptr) {
      handlers.metrics = [this] { return obs::to_prometheus(*config_.registry); };
    }
    handlers.report = [this] { return run_report(); };
    if (config_.trace != nullptr) {
      handlers.trace = [this] { return obs::to_chrome_trace(*config_.trace); };
    }
    inspector_ = std::make_unique<obs::HttpInspector>(config_.inspector,
                                                      std::move(handlers));
  }
}

util::Rng Study::stage_rng(std::uint64_t label) const {
  // Stateless derivation: stage RNGs depend only on (seed, label), never
  // on the order in which lazy stages are first requested.
  return util::Rng(util::mix64(config_.world.seed ^ util::mix64(label)));
}

Study::~Study() {
  // The inspector thread calls run_report(), which touches the pool and
  // registry: stop it before any other member goes away.
  inspector_.reset();
}

runtime::ThreadPool* Study::pool() {
  util::MutexLock lock(pool_mutex_);
  if (!pool_created_) {
    pool_created_ = true;
    if (config_.threads != 1) pool_ = std::make_unique<runtime::ThreadPool>(config_.threads);
  }
  return pool_.get();
}

const world::World& Study::world() {
  if (!world_) world_ = world::build_world(config_.world);
  return *world_;
}

const dns::Resolver& Study::resolver() {
  if (!resolver_) {
    resolver_.emplace(world(), config_.resolver);
    built_resolver_.store(&*resolver_, std::memory_order_release);
  }
  return *resolver_;
}

void Study::maybe_resume() {
  if (resume_attempted_ || config_.storage.resume_from.empty()) return;
  resume_attempted_ = true;
  const std::string& dir = config_.storage.resume_from;
  obs::ScopedSpan span(config_.registry, "study/resume");
  const auto manifest = store::read_manifest(dir + "/manifest.txt");
  // A checkpoint binds its outputs to (seed, scale); resuming under a
  // different config would silently diverge from the straight-through
  // run, so mismatch is an error, not a warning.
  const auto seed = manifest.get_u64("seed");
  if (!seed || *seed != config_.world.seed) {
    throw store::StoreError("study: checkpoint '" + dir + "' has a different seed");
  }
  const auto scale = manifest.get_f64("world_scale");
  if (!scale || *scale != config_.world.scale) {
    throw store::StoreError("study: checkpoint '" + dir + "' has a different scale");
  }
  browser::ExtensionDataset data =
      browser::load_requests(dir + "/dataset.rec", dir + "/dataset.blob");
  data.first_party_visits = manifest.get_u64("dataset_first_party_visits").value_or(0);
  data.distinct_publishers = manifest.get_u64("dataset_distinct_publishers").value_or(0);
  dataset_ = std::move(data);
  pdns_ = pdns::load_store(dir + "/pdns.rec", dir + "/pdns.blob");
  pdns_replicated_ = manifest.get_u64("pdns_replicated").value_or(0) != 0;
  span.set_items(dataset_->requests.size());
}

void Study::save_checkpoint(const std::string& directory) {
  CBWT_EXPECTS(!directory.empty());
  (void)dataset();  // the minimal checkpointable state (collection feeds pDNS)
  std::filesystem::create_directories(directory);
  obs::ScopedSpan span(config_.registry, "study/checkpoint");
  browser::save_requests(*dataset_, directory + "/dataset.rec",
                         directory + "/dataset.blob");
  pdns::save_store(*pdns_, directory + "/pdns.rec", directory + "/pdns.blob");
  store::Manifest manifest;
  manifest.set_u64("seed", config_.world.seed);
  manifest.set_f64("world_scale", config_.world.scale);
  manifest.set_u64("dataset_requests", dataset_->requests.size());
  manifest.set_u64("dataset_first_party_visits", dataset_->first_party_visits);
  manifest.set_u64("dataset_distinct_publishers", dataset_->distinct_publishers);
  manifest.set_u64("pdns_records", pdns_->record_count());
  manifest.set_u64("pdns_replicated", pdns_replicated_ ? 1 : 0);
  manifest.set("file", "dataset.rec");
  manifest.set("file", "dataset.blob");
  manifest.set("file", "pdns.rec");
  manifest.set("file", "pdns.blob");
  store::write_manifest(directory + "/manifest.txt", manifest);
  span.set_items(dataset_->requests.size());
}

const browser::ExtensionDataset& Study::dataset() {
  if (!dataset_) maybe_resume();
  if (!dataset_) {
    // Dependencies resolve before the span opens so lazily-triggered
    // stages never appear as children of the stage that tripped them.
    const auto& built_world = world();
    const auto& dns = resolver();
    runtime::ThreadPool* workers = pool();
    obs::ScopedSpan span(config_.registry, "study/dataset");
    if (!pdns_) pdns_.emplace();
    const auto collect = [&] {
      auto rng = stage_rng(0xDA7A);
      dataset_ = browser::collect_extension_dataset(built_world, dns, config_.collector,
                                                    rng, &*pdns_);
    };
    if (workers == nullptr) {
      collect();
    } else {
      // Replication's batch draws from its own stage RNG and reads only
      // the world and the thread-safe resolver, never the store that
      // collection feeds, so the two run as the two shards of one
      // parallel_for and every output stays what the serial order gives.
      runtime::parallel_for(workers, 2, {.min_shard_items = 1, .max_shards = 2},
                            [&](runtime::ShardRange range, std::size_t /*shard*/) {
                              if (range.begin == 0) {
                                collect();
                              } else {
                                auto rng = stage_rng(0x9D45);
                                pending_batch_ = pdns::replicate_batch(
                                    dns, config_.replication, rng, &config_.fault_plan,
                                    config_.registry);
                              }
                            });
    }
    span.set_items(dataset_->requests.size());
  }
  return *dataset_;
}

const pdns::Store& Study::pdns_store() {
  (void)dataset();  // ensures the store exists and is fed by the users
  if (!pdns_replicated_) {
    const auto& dns = resolver();
    obs::ScopedSpan span(config_.registry, "study/pdns_replication");
    if (pending_batch_) {
      pdns::fold_batch(*pdns_, dns.world(), *pending_batch_);
      pending_batch_.reset();
    } else {
      auto rng = stage_rng(0x9D45);
      pdns::replicate_background(*pdns_, dns, config_.replication, rng, &config_.fault_plan,
                                 config_.registry);
    }
    pdns_replicated_ = true;
    span.set_items(pdns_->all_ips().size());
  }
  return *pdns_;
}

const classify::Classifier& Study::classifier() {
  if (!classifier_) {
    const auto& built_world = world();
    obs::ScopedSpan span(config_.registry, "study/filterlist");
    auto rng = stage_rng(0xF117);
    const auto lists = filterlist::generate_lists(built_world, rng);
    filterlist::Engine engine;
    engine.add_list(filterlist::FilterList("easylist", lists.easylist));
    engine.add_list(filterlist::FilterList("easyprivacy", lists.easyprivacy));
    span.set_items(engine.total_rules());
    classifier_.emplace(std::move(engine), config_.classifier);
  }
  return *classifier_;
}

const std::vector<classify::Outcome>& Study::outcomes() {
  if (!outcomes_) {
    const auto& clf = classifier();
    const auto& data = dataset();
    runtime::ThreadPool* workers = pool();
    obs::ScopedSpan span(config_.registry, "study/classify");
    span.set_items(data.requests.size());
    outcomes_ = clf.run(data, workers, config_.registry);
  }
  return *outcomes_;
}

const std::vector<net::IpAddress>& Study::observed_tracker_ips() {
  if (!observed_ips_) {
    std::unordered_set<net::IpAddress> seen;
    const auto& data = dataset();
    const auto& results = outcomes();
    for (std::size_t i = 0; i < data.requests.size(); ++i) {
      if (classify::is_tracking(results[i].method)) {
        seen.insert(data.requests[i].server_ip);
      }
    }
    observed_ips_.emplace(seen.begin(), seen.end());
    std::sort(observed_ips_->begin(), observed_ips_->end());
  }
  return *observed_ips_;
}

const std::unordered_set<std::string>& Study::tracking_registrables() {
  if (!tracking_registrables_) {
    tracking_registrables_.emplace();
    const auto& built_world = world();
    const auto& data = dataset();
    const auto& results = outcomes();
    std::vector<bool> visited(built_world.domains().size());
    for (std::size_t i = 0; i < data.requests.size(); ++i) {
      if (!classify::is_tracking(results[i].method)) continue;
      const auto domain = data.requests[i].domain;
      if (visited.at(domain)) continue;
      visited[domain] = true;
      tracking_registrables_->insert(built_world.domain(domain).registrable);
    }
  }
  return *tracking_registrables_;
}

const std::vector<net::IpAddress>& Study::completed_tracker_ips() {
  if (!completed_ips_) {
    // Start from the users' observations, then ask pDNS for every other
    // IP that served the same tracking registrable domains (forward
    // completion, §3.3).
    std::unordered_set<net::IpAddress> ips(observed_tracker_ips().begin(),
                                           observed_tracker_ips().end());
    const auto& store = pdns_store();
    for (const auto& registrable : tracking_registrables()) {
      for (const auto& ip : store.ips_of_registrable(registrable)) ips.insert(ip);
    }
    completed_ips_.emplace(ips.begin(), ips.end());
    std::sort(completed_ips_->begin(), completed_ips_->end());
  }
  return *completed_ips_;
}

const geoloc::GeoService& Study::geo() {
  if (!geo_) {
    const auto& built_world = world();
    runtime::ThreadPool* workers = pool();
    obs::ScopedSpan span(config_.registry, "study/geoloc_panel");
    auto mesh_rng = stage_rng(0x3E0);
    mesh_.emplace(config_.mesh, mesh_rng);
    auto db_rng = stage_rng(0x3E1);
    auto maxmind = geoloc::build_maxmind_like(built_world, config_.commercial, db_rng);
    auto ipapi = geoloc::build_ipapi_like(built_world, maxmind, 0.93, db_rng);
    geo_.emplace(built_world, std::move(maxmind), std::move(ipapi), *mesh_,
                 config_.active, config_.world.seed ^ 0xAC7173ULL, workers,
                 config_.registry, &config_.fault_plan);
    built_geo_.store(&*geo_, std::memory_order_release);
  }
  return *geo_;
}

const std::vector<analysis::Flow>& Study::flows() {
  if (!flows_) {
    const auto& built_world = world();
    const auto& data = dataset();
    const auto& results = outcomes();
    obs::ScopedSpan span(config_.registry, "study/border_analysis");
    flows_ = analysis::tracking_flows(built_world, data, results);
    span.set_items(flows_->size());
  }
  return *flows_;
}

analysis::FlowAnalyzer Study::analyzer(geoloc::Tool tool) {
  return analysis::FlowAnalyzer(geo(), tool);
}

const whatif::LocalizationStudy& Study::localization() {
  if (!localization_) {
    const auto& built_world = world();
    const auto& service = geo();
    const auto& data = dataset();
    const auto& results = outcomes();
    obs::ScopedSpan span(config_.registry, "study/localization");
    localization_.emplace(built_world, service, geoloc::Tool::ActiveIpmap);
    localization_->load(data, results);
    span.set_items(localization_->flow_count());
  }
  return *localization_;
}

const sensitive::Catalog& Study::sensitive_catalog() {
  if (!sensitive_) {
    auto rng = stage_rng(0x5E45);
    sensitive_ = sensitive::detect_sensitive_publishers(world(), config_.sensitive, rng);
  }
  return *sensitive_;
}

Study::IspRun Study::run_isp_snapshot(const netflow::IspProfile& isp,
                                      const netflow::Snapshot& snapshot) {
  // The join list is the pipeline's completed tracker IP set, windowed to
  // the snapshot day by the pDNS validity of each (tracking domain, IP)
  // pair — never the whole store, which also holds clean-service records.
  (void)completed_tracker_ips();
  const auto& store = pdns_store();
  const auto& registrables = tracking_registrables();
  const auto& built_world = world();
  const auto& dns = resolver();
  runtime::ThreadPool* workers = pool();

  obs::ScopedSpan span(config_.registry, "study/isp_snapshot");
  netflow::TrackerIpIndex index;
  for (const auto& registrable : registrables) {
    for (const auto& ip : store.ips_of_registrable_at(registrable, snapshot.day)) {
      index.add(ip);
    }
  }

  std::uint64_t label = 0x15B0 ^ util::mix64(static_cast<std::uint64_t>(snapshot.day));
  for (const char c : isp.name) label = util::mix64(label ^ static_cast<std::uint64_t>(c));
  // The sharded generator derives its per-shard streams from this seed.
  const std::uint64_t seed = util::mix64(config_.world.seed ^ util::mix64(label));
  IspRun run;
  if (config_.storage.mode == store::Mode::StoreBacked) {
    // Spill the snapshot to a record file as it is generated, then
    // stream it back through the collector in bounded chunks: snapshot
    // size is bounded by disk, resident memory by the chunk size. Both
    // legs reuse the in-memory code paths, so the results match them
    // bit for bit.
    CBWT_EXPECTS(!config_.storage.directory.empty());
    std::filesystem::create_directories(config_.storage.directory);
    std::string stem;
    for (const char c : isp.name) {
      stem.push_back((std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_');
    }
    const std::string path = config_.storage.directory + "/netflow_" + stem + "_day" +
                             std::to_string(snapshot.day) + ".rec";
    const auto counts = netflow::generate_snapshot_to_store(
        built_world, dns, isp, snapshot, config_.netflow, seed, workers, path,
        config_.registry, &config_.fault_plan);
    run.exported_records = counts.records;
    // The collect leg is the out-of-core radix join: partition the
    // snapshot into compressed flow pages beside the record file, probe
    // against per-partition tracker tables. Bit-identical to the
    // in-memory branch below.
    netflow::JoinConfig join_config;
    join_config.spill_directory =
        config_.storage.directory + "/join_" + stem + "_day" +
        std::to_string(snapshot.day);
    run.collection = netflow::join_flows(netflow::open_snapshot(path, config_.registry),
                                         index, isp, join_config, workers,
                                         config_.registry, &config_.fault_plan);
  } else {
    // Every generated batch is collected as it arrives; the snapshot is
    // never held in memory. Each record is either seen or dropped.
    run.collection = netflow::collect_snapshot(built_world, dns, isp, snapshot,
                                               config_.netflow, seed, index, workers,
                                               config_.registry, &config_.fault_plan);
    run.exported_records = run.collection.records_seen + run.collection.dropped_records;
  }
  run.flows = run.collection.flows(std::string(isp.country));
  span.set_items(run.exported_records);
  return run;
}

std::string Study::run_report() {
  // Pool counters and the resolver's and geolocator's table counts are
  // point-in-time snapshots; refresh them so the report reflects the
  // state at export.
  // The pool pointer is read under the pool mutex (the inspector thread
  // may be here while the main thread first creates the pool); the pool
  // itself is safe to snapshot concurrently and outlives every reader of
  // this copy.
  runtime::ThreadPool* workers = nullptr;
  {
    util::MutexLock lock(pool_mutex_);
    workers = pool_.get();
  }
  if (workers != nullptr) obs::record_pool_stats(config_.registry, *workers);
  const dns::Resolver* dns = built_resolver_.load(std::memory_order_acquire);
  if (dns != nullptr && config_.registry != nullptr) {
    config_.registry->gauge("cbwt_dns_route_tables")
        .set(static_cast<double>(dns->route_tables()));
  }
  const geoloc::GeoService* geo = built_geo_.load(std::memory_order_acquire);
  if (geo != nullptr && config_.registry != nullptr) {
    config_.registry->gauge("cbwt_geoloc_refine_tables")
        .set(static_cast<double>(geo->refine_tables()));
  }

  report::JsonWriter json;
  json.begin_object();
  json.key("name").value("cbwt_core_run_report");
  json.key("seed").value(config_.world.seed);
  json.key("scale").value(config_.world.scale);
  json.key("threads").value(static_cast<std::uint64_t>(config_.threads));
  json.key("fault");
  json.begin_object();
  const bool fault_enabled = config_.fault_plan.enabled();
  json.key("enabled").value(fault_enabled);
  if (fault_enabled) {
    json.key("seed").value(config_.fault_plan.seed);
    // Degradation per stage: every cbwt_fault_<site>_degraded_total the
    // run's stages published, keyed by injection site. Counters are read
    // from the snapshot, never created here.
    json.key("degraded");
    json.begin_object();
    if (config_.registry != nullptr) {
      constexpr std::string_view kPrefix = "cbwt_fault_";
      constexpr std::string_view kSuffix = "_degraded_total";
      for (const auto& [name, count] : config_.registry->counters()) {
        if (name.starts_with(kPrefix) && name.ends_with(kSuffix)) {
          json.key(name.substr(kPrefix.size(),
                               name.size() - kPrefix.size() - kSuffix.size()))
              .value(count);
        }
      }
    }
    json.end_object();
  }
  json.end_object();
  json.key("obs");
  if (config_.registry != nullptr) {
    obs::write_json(*config_.registry, json);
  } else {
    const obs::Registry empty;
    obs::write_json(empty, json);
  }
  json.end_object();
  return json.str();
}

}  // namespace cbwt::core
