#include "geoloc/service.h"

#include <array>
#include <chrono>
#include <unordered_set>

#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "runtime/parallel.h"
#include "util/contract.h"

namespace cbwt::geoloc {

namespace {

/// Latency buckets for one active measurement (seconds). Simulated
/// probes are microsecond-scale; real RTT panels would fill the tail.
constexpr std::array<double, 6> kMeasureBounds = {1e-5, 1e-4, 1e-3,
                                                  1e-2, 1e-1, 1.0};

}  // namespace

std::string_view to_string(Tool tool) noexcept {
  switch (tool) {
    case Tool::GroundTruth: return "ground-truth";
    case Tool::MaxMindLike: return "maxmind-like";
    case Tool::IpApiLike: return "ip-api-like";
    case Tool::ActiveIpmap: return "ipmap-like";
    case Tool::LegalEntity: return "legal-entity";
  }
  return "?";
}

GeoService::GeoService(const world::World& world, CommercialDb maxmind_like,
                       CommercialDb ipapi_like, const ProbeMesh& mesh,
                       ActiveGeolocatorOptions active_options,
                       std::uint64_t measurement_seed, runtime::ThreadPool* pool,
                       obs::Registry* registry, const fault::FaultPlan* fault_plan)
    : world_(&world), maxmind_like_(std::move(maxmind_like)),
      ipapi_like_(std::move(ipapi_like)), active_(world, mesh, active_options),
      measurement_seed_(measurement_seed), pool_(pool),
      measure_(fault::StageSite::resolve(fault_plan, fault::sites::kGeoMeasure, registry)),
      probe_(fault::StageSite::resolve(fault_plan, fault::sites::kGeoProbe, registry)) {
  if (registry != nullptr) {
    registry_ = registry;
    batches_ = &registry->counter("cbwt_geoloc_probe_batches_total");
    batch_ips_ = &registry->counter("cbwt_geoloc_probe_batch_ips_total");
    cache_hits_ = &registry->counter("cbwt_geoloc_cache_hits_total");
    cache_misses_ = &registry->counter("cbwt_geoloc_cache_misses_total");
    located_ = &registry->counter("cbwt_geoloc_located_total");
    unlocated_ = &registry->counter("cbwt_geoloc_unlocated_total");
    measure_seconds_ =
        &registry->histogram("cbwt_geoloc_measure_seconds", kMeasureBounds);
  }
}

std::string GeoService::measure_active(const net::IpAddress& ip) const {
  std::uint32_t attempt = 0;
  if (measure_.live()) {
    // Whole-measurement fate: pure in (plan, ip), so concurrent and
    // repeated measurements of the same IP agree without coordination.
    const fault::CallFate fate = measure_.call(ip.hash());
    if (!fate.ok()) {
      // The engine never returned a verdict: cache the IP as unlocated
      // and let the analysis tables degrade gracefully.
      measure_.metrics.count_degraded();
      if (located_ != nullptr) unlocated_->add(1);
      return {};
    }
    attempt = fate.attempts - 1;
  }
  auto rng = measurement_rng(ip, attempt);
  GeoEstimate estimate;
  if (measure_seconds_ != nullptr) {
    const auto begin = std::chrono::steady_clock::now();
    estimate = active_.locate(ip, rng, probe_.plan);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - begin;
    measure_seconds_->observe(elapsed.count());
  } else {
    estimate = active_.locate(ip, rng, probe_.plan);
  }
  if (estimate.lost_probes > 0) {
    probe_.metrics.count_injected(estimate.lost_probes);
    // An empty verdict here means the surviving panel missed quorum.
    if (estimate.country.empty()) probe_.metrics.count_degraded();
  }
  if (located_ != nullptr) {
    (estimate.country.empty() ? *unlocated_ : *located_).add(1);
  }
  return estimate.country;
}

util::Rng GeoService::measurement_rng(const net::IpAddress& ip,
                                      std::uint32_t attempt) const noexcept {
  std::uint64_t stream = util::mix64(measurement_seed_ ^ ip.hash());
  if (attempt > 0) {
    // Retried measurements schedule a fresh panel: salt the stream, but
    // keep attempt 0 on the legacy stream byte for byte.
    stream = util::mix64(stream + 0x9E3779B97F4A7C15ULL * attempt);
  }
  return util::Rng(stream);
}

std::string GeoService::locate_active(const net::IpAddress& ip) const {
  {
    util::MutexLock lock(cache_mutex_);
    if (const auto it = active_cache_.find(ip); it != active_cache_.end()) {
      if (cache_hits_ != nullptr) cache_hits_->add(1);
      return it->second;
    }
  }
  if (cache_misses_ != nullptr) cache_misses_->add(1);
  std::string country = measure_active(ip);
  util::MutexLock lock(cache_mutex_);
  // A racing lookup may have inserted first; both computed the same
  // per-IP verdict, so either insert wins harmlessly.
  active_cache_.emplace(ip, country);
  return country;
}

void GeoService::prefetch(std::span<const net::IpAddress> ips) const {
  std::vector<net::IpAddress> missing;
  {
    util::MutexLock lock(cache_mutex_);
    std::unordered_set<net::IpAddress> queued;
    for (const auto& ip : ips) {
      if (!active_cache_.contains(ip) && queued.insert(ip).second) {
        missing.push_back(ip);
      }
    }
  }
  if (missing.empty()) return;
  obs::ScopedSpan span(registry_, "geoloc/prefetch");
  span.set_items(missing.size());
  if (batches_ != nullptr) {
    batches_->add(1);
    batch_ips_->add(missing.size());
    // Each IP measured here missed the cache, as a lookup would have.
    cache_misses_->add(missing.size());
  }
  std::vector<std::string> countries(missing.size());
  runtime::parallel_for(pool_, missing.size(), {.min_shard_items = 8},
                        [&](runtime::ShardRange range, std::size_t /*shard*/) {
                          for (std::size_t i = range.begin; i < range.end; ++i) {
                            obs::ScopedTrace trace(registry_, "geoloc/active_probe", i);
                            countries[i] = measure_active(missing[i]);
                          }
                        });
  util::MutexLock lock(cache_mutex_);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    active_cache_.emplace(missing[i], countries[i]);
  }
}

std::string GeoService::locate(const net::IpAddress& ip, Tool tool) const {
  CBWT_ASSERT(world_ != nullptr);
  switch (tool) {
    case Tool::GroundTruth:
      return world_->true_country_of(ip);
    case Tool::MaxMindLike:
      return maxmind_like_.locate(ip).value_or(std::string{});
    case Tool::IpApiLike:
      return ipapi_like_.locate(ip).value_or(std::string{});
    case Tool::ActiveIpmap:
      return locate_active(ip);
    case Tool::LegalEntity: {
      const world::Server* server = world_->find_server(ip);
      if (server == nullptr) return {};
      return world_->org(server->org).hq_country;
    }
  }
  return {};
}

std::optional<geo::Continent> GeoService::continent(const net::IpAddress& ip,
                                                    Tool tool) const {
  const auto code = locate(ip, tool);
  const geo::Country* country = geo::find_country(code);
  if (country == nullptr) return std::nullopt;
  return country->continent;
}

std::optional<geo::Region> GeoService::region(const net::IpAddress& ip, Tool tool) const {
  const auto code = locate(ip, tool);
  return geo::region_of_code(code);
}

Agreement pairwise_agreement(const GeoService& service,
                             const std::vector<net::IpAddress>& ips, Tool a, Tool b) {
  Agreement agreement;
  if (ips.empty()) return agreement;
  if (a == Tool::ActiveIpmap || b == Tool::ActiveIpmap) service.prefetch(ips);
  std::size_t same_country = 0;
  std::size_t same_continent = 0;
  for (const auto& ip : ips) {
    const auto country_a = service.locate(ip, a);
    const auto country_b = service.locate(ip, b);
    if (!country_a.empty() && country_a == country_b) ++same_country;
    const auto continent_a = service.continent(ip, a);
    const auto continent_b = service.continent(ip, b);
    if (continent_a && continent_b && *continent_a == *continent_b) ++same_continent;
  }
  agreement.country = static_cast<double>(same_country) / static_cast<double>(ips.size());
  agreement.continent =
      static_cast<double>(same_continent) / static_cast<double>(ips.size());
  CBWT_ENSURES(agreement.country >= 0.0 && agreement.country <= 1.0);
  CBWT_ENSURES(agreement.continent >= 0.0 && agreement.continent <= 1.0);
  return agreement;
}

}  // namespace cbwt::geoloc
