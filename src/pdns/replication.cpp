#include "pdns/replication.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "geo/country.h"
#include "obs/trace_buffer.h"

namespace cbwt::pdns {

namespace {

/// Stale-window lag in days for a stale-data fault: 30..119, derived
/// statelessly from the query key so it is stable across runs.
Day stale_lag_days(const fault::StageSite& pdns, std::uint64_t key) noexcept {
  const double u = fault::stateless_uniform(pdns.plan->seed, pdns.site.hash, key,
                                            /*salt=*/0x57A1E0000000000ULL);
  return 30 + static_cast<Day>(u * 90.0);
}

}  // namespace

std::vector<BatchEntry> replicate_batch(const dns::Resolver& resolver,
                                        const ReplicationConfig& config, util::Rng& rng,
                                        const fault::FaultPlan* fault_plan,
                                        obs::Registry* registry) {
  obs::ScopedTrace trace(registry, "pdns/replicate_batch");
  const world::World& world = resolver.world();

  const auto pdns = fault::StageSite::resolve(fault_plan, fault::sites::kPdns, registry);

  // Query origins: any country, weighted by population (pDNS collectors
  // sit in production networks around the world), each through its ISP's
  // resolver (origins[2c]) or a public one (origins[2c + 1]).
  const auto countries = geo::all_countries();
  std::vector<double> country_weights;
  country_weights.reserve(countries.size());
  std::vector<dns::QueryOrigin> origins;
  origins.reserve(2 * countries.size());
  for (const auto& country : countries) {
    country_weights.push_back(country.population_m);
    origins.push_back(resolver.origin_for(country.code, false));
    origins.push_back(resolver.origin_for(country.code, true));
  }
  const util::DiscreteSampler country_sampler(country_weights);

  // Queried domains: tracking domains weighted by their org popularity.
  const auto tracking = world.tracking_domain_ids();
  std::vector<double> domain_weights;
  domain_weights.reserve(tracking.size());
  for (const auto id : tracking) {
    domain_weights.push_back(world.org(world.domain(id).org).popularity);
  }
  const util::DiscreteSampler domain_sampler(domain_weights);

  // One entry per (domain, server) pair, in first-observation order.
  std::vector<BatchEntry> batch;
  std::unordered_map<std::uint64_t, std::size_t> entry_of;
  const auto observe = [&](world::DomainId domain, world::ServerId server,
                           const net::IpAddress& ip, Day day) {
    const std::uint64_t key = (static_cast<std::uint64_t>(domain) << 32) | server;
    const auto [it, inserted] = entry_of.try_emplace(key, batch.size());
    if (inserted) {
      batch.push_back(BatchEntry{domain, server, ip, day, day, 1});
      return;
    }
    BatchEntry& entry = batch[it->second];
    entry.first_seen = std::min(entry.first_seen, day);
    entry.last_seen = std::max(entry.last_seen, day);
    ++entry.observations;
  };

  for (Day day = config.window_start; day <= config.window_end; day += config.sample_every) {
    for (std::uint32_t q = 0; q < config.queries_per_sample; ++q) {
      const std::size_t country = country_sampler.sample(rng);
      const auto domain_id = tracking[domain_sampler.sample(rng)];
      const bool third_party = rng.chance(0.25);
      // Resolve unconditionally — the rng consumption must not depend on
      // the fault decision, or surviving observations would diverge from
      // the fault-free stream.
      const auto answer =
          resolver.resolve(domain_id, origins[2 * country + (third_party ? 1 : 0)], rng);
      Day observed_day = day;
      if (pdns.live()) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(day)) << 32) | q;
        const fault::CallFate fate = pdns.call(key);
        if (!fate.ok()) {
          // The feed never delivered this observation to the collector.
          pdns.metrics.count_degraded();
          continue;
        }
        if (fate.stale) {
          // Stale-window fallback: the pair is real but its observation
          // timestamp lags, the churn failure mode validity windows absorb.
          observed_day = day - stale_lag_days(pdns, key);
          pdns.metrics.count_degraded();
        }
      }
      observe(domain_id, answer.server, answer.ip, observed_day);
    }
  }

  // Dynamic-IP churn noise: record pairs whose window closed before the
  // study window began; the pair's IP currently belongs to a different
  // organization's server.
  for (std::uint32_t i = 0; i < config.stale_pairs; ++i) {
    const auto victim_id = tracking[static_cast<std::size_t>(
        rng.next_below(tracking.size()))];
    const auto donor_id = tracking[static_cast<std::size_t>(
        rng.next_below(tracking.size()))];
    const auto& victim = world.domain(victim_id);
    const auto& donor = world.domain(donor_id);
    if (victim.org == donor.org || donor.servers.empty()) continue;
    const world::ServerId donor_server = donor.servers.front();
    const net::IpAddress& donor_ip = world.server(donor_server).ip;
    const Day stale_start = config.window_start - 400 + static_cast<Day>(rng.next_below(300));
    observe(victim_id, donor_server, donor_ip, stale_start);
    observe(victim_id, donor_server, donor_ip,
            stale_start + static_cast<Day>(rng.next_below(60)));
  }
  return batch;
}

void fold_batch(Store& store, const world::World& world, const std::vector<BatchEntry>& batch) {
  // A pair's record is created by its earliest observation, and batch
  // order is first-observation order, so records append in the order
  // per-observation feeding appends them; window bounds and counts are
  // min, max and sum either way.
  for (const BatchEntry& entry : batch) {
    const auto& domain = world.domain(entry.domain);
    store.fold(domain.fqdn, domain.registrable, entry.ip, entry.first_seen, entry.last_seen,
               entry.observations);
  }
}

void replicate_background(Store& store, const dns::Resolver& resolver,
                          const ReplicationConfig& config, util::Rng& rng,
                          const fault::FaultPlan* fault_plan, obs::Registry* registry) {
  fold_batch(store, resolver.world(),
             replicate_batch(resolver, config, rng, fault_plan, registry));
}

}  // namespace cbwt::pdns
