// Unified geolocation front-end over the three tools the paper compares
// (MaxMind-like, IP-API-like, IPmap-like active measurement) plus the
// hidden ground truth, with memoized active measurements and the
// pairwise-agreement computation behind Table 3.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/retry.h"
#include "geoloc/active.h"
#include "geoloc/commercial.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "util/thread_annotations.h"

namespace cbwt::geoloc {

enum class Tool : std::uint8_t {
  GroundTruth,   ///< the world's real server placement (validation only)
  MaxMindLike,
  IpApiLike,
  ActiveIpmap,
  LegalEntity,   ///< WHOIS-style: the operator's registered home country
                 ///< (what several related works call "geolocation",
                 ///< Table 9) — correct for liability, useless for routing
};

[[nodiscard]] std::string_view to_string(Tool tool) noexcept;

/// One-stop lookup: country (ISO code) per IP per tool. Active
/// measurements are lazy and cached (the paper also measures each IP
/// once and reuses the result).
///
/// Each IP's probe panel draws from its own RNG, derived statelessly
/// from (measurement seed, IP): the verdict for an IP is a pure function
/// of the seed, independent of lookup order, caching, and — via
/// prefetch() — of how many threads measured it.
class GeoService {
 public:
  /// `pool` (optional, not owned, must outlive the service) parallelizes
  /// prefetch(); lookups themselves stay single-IP. `registry` (optional,
  /// not owned, must outlive the service) counts active-measurement
  /// traffic: probe batches, cache hits/misses, located/unlocated
  /// verdicts, and a per-measurement latency histogram. Instrumentation
  /// never affects verdicts.
  ///
  /// `fault_plan` (optional, not owned, must outlive the service)
  /// subjects active measurements to injection: whole-measurement faults
  /// (`geoloc_measure` site, retried with the default policy; an
  /// exhausted measurement caches an empty = unlocated verdict) and
  /// per-probe loss inside the panel (`geoloc_probe` site, handled by
  /// ActiveGeolocator: survivors below quorum -> unlocated). Fates are
  /// pure functions of (plan, ip), never of lookup order or thread
  /// count, so the thread-invariance contract of the cache holds under
  /// injection too.
  GeoService(const world::World& world, CommercialDb maxmind_like, CommercialDb ipapi_like,
             const ProbeMesh& mesh, ActiveGeolocatorOptions active_options,
             std::uint64_t measurement_seed, runtime::ThreadPool* pool = nullptr,
             obs::Registry* registry = nullptr,
             const fault::FaultPlan* fault_plan = nullptr);

  /// Country code for `ip` under `tool`; empty string when unlocatable.
  /// Thread-safe (the active cache is internally synchronized).
  [[nodiscard]] std::string locate(const net::IpAddress& ip, Tool tool) const;

  /// Measures every not-yet-cached IP of `ips` with the active tool,
  /// sharded across the pool, and counts each one as a cache miss.
  /// Results are identical to looking each IP up on demand — this is
  /// purely a throughput lever.
  void prefetch(std::span<const net::IpAddress> ips) const;

  /// Continent/region helpers driven by locate().
  [[nodiscard]] std::optional<geo::Continent> continent(const net::IpAddress& ip,
                                                        Tool tool) const;
  [[nodiscard]] std::optional<geo::Region> region(const net::IpAddress& ip,
                                                  Tool tool) const;

  [[nodiscard]] const world::World& world() const noexcept { return *world_; }

  /// The active tool's refinement tables built so far (one per focus
  /// probe that has won a scouting round; at most the mesh size).
  [[nodiscard]] std::size_t refine_tables() const noexcept { return active_.refine_tables(); }

 private:
  /// The per-IP generator: stateless in (seed, ip), the root of the
  /// order- and thread-count-independence of active verdicts. Attempt 0
  /// is the legacy stream (fault-free runs are byte-identical); retried
  /// measurements re-draw their panel from an attempt-salted stream, as
  /// a re-scheduled panel would.
  [[nodiscard]] util::Rng measurement_rng(const net::IpAddress& ip,
                                          std::uint32_t attempt) const noexcept;
  [[nodiscard]] std::string locate_active(const net::IpAddress& ip) const;

  /// Measures `ip` with the active tool, updating the measurement
  /// metrics when a registry is attached.
  [[nodiscard]] std::string measure_active(const net::IpAddress& ip) const;

  const world::World* world_;
  CommercialDb maxmind_like_;
  CommercialDb ipapi_like_;
  ActiveGeolocator active_;
  std::uint64_t measurement_seed_;
  runtime::ThreadPool* pool_;
  /// Whole-measurement and per-probe injection; not live unless the
  /// plan injects at that site — one branch on the fault-free path.
  fault::StageSite measure_;
  fault::StageSite probe_;
  mutable util::Mutex cache_mutex_;
  mutable std::unordered_map<net::IpAddress, std::string> active_cache_
      CBWT_GUARDED_BY(cache_mutex_);

  // Metric handles, resolved once at construction; all null when no
  // registry is attached, so the instrumented paths cost one null check.
  // The registry itself is kept for flight-recorder (ScopedTrace) emits
  // from probe workers.
  obs::Registry* registry_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* batch_ips_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* located_ = nullptr;
  obs::Counter* unlocated_ = nullptr;
  obs::Histogram* measure_seconds_ = nullptr;
};

/// Pairwise agreement between two tools over an IP set (Table 3).
struct Agreement {
  double country = 0.0;    ///< share of IPs with identical country
  double continent = 0.0;  ///< share with identical continent
};

[[nodiscard]] Agreement pairwise_agreement(const GeoService& service,
                                           const std::vector<net::IpAddress>& ips,
                                           Tool a, Tool b);

/// Per-organization mis-geolocation stats under a commercial tool,
/// against the active tool as reference (Table 4).
struct MisgeolocationStats {
  std::uint64_t ips = 0;
  std::uint64_t wrong_country_ips = 0;
  std::uint64_t wrong_continent_ips = 0;
  std::uint64_t requests = 0;
  std::uint64_t wrong_country_requests = 0;
  std::uint64_t wrong_continent_requests = 0;
};

}  // namespace cbwt::geoloc
