// Feeds the pDNS store the way production replication does: a broad
// background population of resolvers (far larger than the 350 extension
// users) querying tracking domains over the whole study window. This is
// what lets the store return tracker IPs that the recruited users never
// happened to receive — the paper's §3.3 completeness step (+2.78% IPs).
#pragma once

#include <cstdint>
#include <vector>

#include "dns/resolver.h"
#include "fault/retry.h"
#include "obs/metrics.h"
#include "pdns/store.h"
#include "util/prng.h"
#include "world/world.h"

namespace cbwt::pdns {

struct ReplicationConfig {
  Day window_start = 0;
  /// Replication runs past the extension window: the paper kept collecting
  /// mid-Jan..July 2018 so the tracker-IP list stays fresh for the ISP
  /// snapshots (§7.2). Day 330 ~= end of July 2018.
  Day window_end = 330;
  Day sample_every = 3;          ///< replication granularity in days
  std::uint32_t queries_per_sample = 4000;
  /// Dynamic-IP noise: pairs observed with an out-of-date window whose IP
  /// later serves a different organization. Validity-window filtering in
  /// the analysis removes them.
  std::uint32_t stale_pairs = 50;
};

/// Every observation replication made of one (domain, server) pair.
struct BatchEntry {
  world::DomainId domain = 0;
  world::ServerId server = 0;
  net::IpAddress ip;  ///< the server's address
  Day first_seen = 0;
  Day last_seen = 0;
  std::uint64_t observations = 0;
};

/// Runs the background population against the resolver and returns its
/// observations, one entry per (domain, server) pair in the order each
/// pair was first observed. Touches no Store, so it may run on another
/// thread while collection feeds the store.
///
/// `fault_plan` (optional) subjects each replication query to the
/// `pdns` injection site: a query that exhausts its retries is dropped
/// from the feed (the collector never saw it), and a query answered
/// with stale data is recorded with its observation day pushed back by
/// a deterministic stale window — the dynamic-IP-churn failure mode of
/// §3.3 that validity-window filtering is meant to absorb. The query's
/// rng draws happen either way, so the surviving observations are
/// bit-identical to the fault-free run's.
[[nodiscard]] std::vector<BatchEntry> replicate_batch(const dns::Resolver& resolver,
                                                      const ReplicationConfig& config,
                                                      util::Rng& rng,
                                                      const fault::FaultPlan* fault_plan = nullptr,
                                                      obs::Registry* registry = nullptr);

/// Folds a batch into `store` in batch order: the store ends with the
/// record table that observing each of the batch's observations in draw
/// order builds. Two servers of a domain that share an IP fold into one
/// record.
void fold_batch(Store& store, const world::World& world, const std::vector<BatchEntry>& batch);

/// replicate_batch, then fold_batch into `store`: the serial path.
void replicate_background(Store& store, const dns::Resolver& resolver,
                          const ReplicationConfig& config, util::Rng& rng,
                          const fault::FaultPlan* fault_plan = nullptr,
                          obs::Registry* registry = nullptr);

}  // namespace cbwt::pdns
