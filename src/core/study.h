// The Study facade: one object that wires the whole measurement pipeline
// the way the paper ran it —
//
//   build world -> recruit users & collect extension dataset (feeding
//   pDNS) -> background pDNS replication -> classify tracking flows ->
//   complete tracker IP set -> geolocate (3 tools) -> analyze border
//   crossing -> what-if localization -> sensitive categories -> ISP
//   NetFlow scale-up.
//
// Every stage is lazy and memoized; benches and examples ask for exactly
// the stages they need. A Study is deterministic in its config.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/flows.h"
#include "browser/extension.h"
#include "classify/classifier.h"
#include "dns/resolver.h"
#include "fault/fault.h"
#include "filterlist/generate.h"
#include "geoloc/service.h"
#include "netflow/collector.h"
#include "netflow/generator.h"
#include "obs/http_inspector.h"
#include "obs/metrics.h"
#include "pdns/replication.h"
#include "runtime/thread_pool.h"
#include "sensitive/detection.h"
#include "store/dataset.h"
#include "util/thread_annotations.h"
#include "whatif/localization.h"
#include "world/world.h"

namespace cbwt::core {

/// Dataset materialization and checkpoint/resume knobs.
struct StorageConfig {
  /// InMemory keeps the seed pipeline's heap vectors. StoreBacked
  /// spills each NetFlow snapshot to a memory-mapped record file under
  /// `directory` and streams it back in bounded chunks, so snapshot
  /// size is bounded by disk, not RAM. Results are bit-identical
  /// between the two modes.
  store::Mode mode = store::Mode::InMemory;
  /// Store directory for StoreBacked spill files and save_checkpoint().
  /// Required (non-empty) when mode == StoreBacked.
  std::string directory;
  /// Checkpoint directory to resume from ("" = fresh run). The saved
  /// manifest's seed and world scale must match this config; downstream
  /// results equal the straight-through run exactly, at any thread
  /// count.
  std::string resume_from;
};

struct StudyConfig {
  world::WorldConfig world;
  browser::CollectorConfig collector;
  pdns::ReplicationConfig replication;
  classify::ClassifierConfig classifier;
  geoloc::MeshConfig mesh;
  geoloc::ActiveGeolocatorOptions active;
  geoloc::CommercialDbOptions commercial;
  dns::ResolverOptions resolver;
  netflow::GeneratorConfig netflow;
  sensitive::DetectionConfig sensitive;
  /// Worker threads for the sharded stages (classification, active
  /// geolocation, NetFlow generation/collection). 1 = exact serial path
  /// (no pool is created); 0 = one thread per hardware core. Results are
  /// bit-identical for every value.
  unsigned threads = 1;
  /// Optional metrics registry (not owned, must outlive the Study). When
  /// attached, every pipeline stage records a span and the instrumented
  /// modules publish their counters into it; results stay bit-identical
  /// with or without it. nullptr (the default) keeps every instrumented
  /// path a null-check-only no-op.
  obs::Registry* registry = nullptr;
  /// Optional flight recorder (not owned, must outlive the Study).
  /// Armed onto `registry` at construction: spans and worker shards then
  /// emit begin/end events for the Chrome-trace timeline. Requires a
  /// registry; ignored without one. Results stay bit-identical with or
  /// without it.
  obs::TraceBuffer* trace = nullptr;
  /// Embedded live inspector (/metrics, /report, /trace, /healthz).
  /// Disabled by default; when enabled the Study starts an HttpInspector
  /// at construction and stops it at destruction. The server thread only
  /// reads registry/trace snapshots — never study state or RNG.
  obs::InspectorConfig inspector;
  /// Dataset materialization (in-memory vs store-backed) and
  /// checkpoint/resume; the default is the unchanged in-memory path.
  StorageConfig storage;
  /// Fault-injection plan for the external-facing services (DNS, pDNS
  /// replication, geolocation probes/measurements, NetFlow export). The
  /// default (all rates zero) is the zero-cost path: stage outputs and
  /// the registry's contents are byte-identical to a build without the
  /// fault layer. Any enabled plan stays deterministic in (seed, plan)
  /// across thread counts.
  fault::FaultPlan fault_plan;
};

class Study {
 public:
  explicit Study(StudyConfig config = {});
  ~Study();
  Study(const Study&) = delete;
  Study& operator=(const Study&) = delete;

  [[nodiscard]] const StudyConfig& config() const noexcept { return config_; }
  [[nodiscard]] const world::World& world();
  [[nodiscard]] const dns::Resolver& resolver();

  /// The recruited users' collected dataset (collection feeds pDNS).
  /// With a pool, background pDNS replication's batch is drawn beside
  /// collection on a second worker and kept until pdns_store() folds it.
  [[nodiscard]] const browser::ExtensionDataset& dataset();

  /// pDNS store after extension feeding + background replication.
  [[nodiscard]] const pdns::Store& pdns_store();

  /// Per-request classification outcomes (parallel to dataset()).
  [[nodiscard]] const std::vector<classify::Outcome>& outcomes();
  [[nodiscard]] const classify::Classifier& classifier();

  /// Distinct tracker IPs observed by the users' browsers on classified
  /// tracking flows.
  [[nodiscard]] const std::vector<net::IpAddress>& observed_tracker_ips();

  /// Tracker IPs after pDNS completion (§3.3): observed plus the
  /// additional addresses the store knows for the same tracking domains.
  [[nodiscard]] const std::vector<net::IpAddress>& completed_tracker_ips();

  /// The three-tool geolocation service.
  [[nodiscard]] const geoloc::GeoService& geo();

  /// Classified tracking flows of the extension dataset.
  [[nodiscard]] const std::vector<analysis::Flow>& flows();

  /// Flow analyzer bound to a tool (defaults to the active/IPmap tool,
  /// which the paper establishes as the reliable one).
  [[nodiscard]] analysis::FlowAnalyzer analyzer(
      geoloc::Tool tool = geoloc::Tool::ActiveIpmap);

  /// Localization what-if study loaded with the EU28 tracking flows.
  [[nodiscard]] const whatif::LocalizationStudy& localization();

  /// Sensitive-category catalog over the visited publishers.
  [[nodiscard]] const sensitive::Catalog& sensitive_catalog();

  /// One ISP-day NetFlow run: generate, collect, and match against the
  /// completed tracker IP list valid on that day.
  struct IspRun {
    netflow::CollectionResult collection;
    std::vector<analysis::Flow> flows;
    std::uint64_t exported_records = 0;
  };
  [[nodiscard]] IspRun run_isp_snapshot(const netflow::IspProfile& isp,
                                        const netflow::Snapshot& snapshot);

  /// The lazily created worker pool; nullptr when config().threads == 1,
  /// which keeps every stage on the exact inline serial path.
  [[nodiscard]] runtime::ThreadPool* pool();

  /// The running inspector, or nullptr when config.inspector.enabled is
  /// false. Use inspector()->port() to find an ephemeral bind.
  [[nodiscard]] obs::HttpInspector* inspector() noexcept { return inspector_.get(); }

  /// Machine-readable run report: seed, scale, threads, and the attached
  /// registry's full metric state (counters, gauges, histograms, one
  /// span per executed stage) as a JSON document. With no registry
  /// attached the report is still valid JSON with empty metric sections.
  /// Call after the stages of interest have run; pool counters, the
  /// resolver's route-table count (cbwt_dns_route_tables) and the active
  /// geolocator's refinement-table count (cbwt_geoloc_refine_tables) are
  /// refreshed into the registry on each call.
  [[nodiscard]] std::string run_report();

  /// Persists the completed early stages (extension dataset + the pDNS
  /// store in its current state) to `directory` as store files plus a
  /// manifest. A later process pointing storage.resume_from at the
  /// directory skips collection, reloads the saved state, and produces
  /// bit-identical downstream results — same seed, any thread count.
  /// Replication-not-yet-run is recorded in the manifest; the resumed
  /// Study re-runs it from its own stage RNG, which depends only on
  /// (seed, label).
  void save_checkpoint(const std::string& directory);

 private:
  /// Loads storage.resume_from (once) before dataset collection runs.
  void maybe_resume();

  [[nodiscard]] util::Rng stage_rng(std::uint64_t label) const;

  /// Registrable domains of classified tracking requests, shared by pDNS
  /// completion and the per-day tracker index of run_isp_snapshot.
  [[nodiscard]] const std::unordered_set<std::string>& tracking_registrables();

  StudyConfig config_;

  /// Guards lazy pool creation: run_report() may run on the inspector
  /// thread concurrently with the first pool() call on the main thread.
  mutable util::Mutex pool_mutex_;
  bool pool_created_ CBWT_GUARDED_BY(pool_mutex_) = false;
  bool resume_attempted_ = false;
  std::unique_ptr<runtime::ThreadPool> pool_ CBWT_GUARDED_BY(pool_mutex_);

  /// Started last in the constructor, stopped first in the destructor:
  /// its thread must never observe a partially destroyed Study.
  std::unique_ptr<obs::HttpInspector> inspector_;

  std::optional<world::World> world_;
  std::optional<dns::Resolver> resolver_;
  /// &*resolver_ once built: run_report() may read its table count on the
  /// inspector thread while the main thread first builds it.
  std::atomic<const dns::Resolver*> built_resolver_{nullptr};
  std::optional<browser::ExtensionDataset> dataset_;
  std::optional<pdns::Store> pdns_;
  bool pdns_replicated_ = false;
  /// Replication's batch, drawn beside collection and not yet folded
  /// into pdns_; a checkpoint saved meanwhile records replication as not
  /// run, exactly as the serial path would.
  std::optional<std::vector<pdns::BatchEntry>> pending_batch_;
  std::optional<classify::Classifier> classifier_;
  std::optional<std::vector<classify::Outcome>> outcomes_;
  std::optional<std::vector<net::IpAddress>> observed_ips_;
  std::optional<std::unordered_set<std::string>> tracking_registrables_;
  std::optional<std::vector<net::IpAddress>> completed_ips_;
  std::optional<geoloc::ProbeMesh> mesh_;
  std::optional<geoloc::GeoService> geo_;
  /// &*geo_ once built: run_report() may read its refinement-table count
  /// on the inspector thread while the main thread first builds it.
  std::atomic<const geoloc::GeoService*> built_geo_{nullptr};
  std::optional<std::vector<analysis::Flow>> flows_;
  std::optional<whatif::LocalizationStudy> localization_;
  std::optional<sensitive::Catalog> sensitive_;
};

}  // namespace cbwt::core
