// NetFlow collection and tracker matching (§7.2): the collector keeps
// only user-facing (internal edge) interfaces, anonymizes the subscriber
// side to a country code, and joins the remote side against the tracker
// IP list produced by the extension pipeline — restricted to IPs whose
// pDNS validity window covers the snapshot day, which removes
// dynamic-IP-reuse noise.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/flows.h"
#include "fault/retry.h"
#include "netflow/profile.h"
#include "netflow/record.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace cbwt::netflow {

/// The set of known tracking-service IPs. core::Study fills it from the
/// pDNS records of tracker domains whose window covers the snapshot day.
class TrackerIpIndex {
 public:
  void add(const net::IpAddress& ip);

  [[nodiscard]] bool contains(const net::IpAddress& ip) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return ips_.size(); }

  /// The raw IP set, for consumers that build their own lookup
  /// structure over it (the out-of-core join's dense partition tables).
  [[nodiscard]] const std::unordered_set<net::IpAddress>& ips() const noexcept {
    return ips_;
  }

 private:
  std::unordered_set<net::IpAddress> ips_;
};

/// Aggregates of one ISP-day collection run.
struct CollectionResult {
  std::uint64_t records_seen = 0;
  std::uint64_t internal_records = 0;    ///< records surviving the edge filter
  std::uint64_t matched_records = 0;     ///< records touching a tracker IP
  std::uint64_t https_records = 0;       ///< matched records on port 443
  std::uint64_t udp_records = 0;         ///< matched records on UDP (QUIC)
  /// Exports lost between router and collector (fault injection only;
  /// dropped records never count as seen — they never arrived).
  std::uint64_t dropped_records = 0;
  /// Per-tracker-IP sampled counters (the hash-and-count of §7.2).
  std::unordered_map<net::IpAddress, std::uint64_t> per_ip;

  /// Matched flows in the analyzer's format (origin = ISP country).
  [[nodiscard]] std::vector<analysis::Flow> flows(std::string origin_country) const;
};

/// Merges a partial result into an accumulator: counter sums and per-IP
/// counter merges, both order-free. The one merge used by every
/// aggregation path (sharded, store-chunked), so they cannot drift.
void merge_collection(CollectionResult& acc, CollectionResult&& part);

/// Fault-injection knobs of one collect() call. The drop decision for a
/// record is stateless in its *absolute* index (`base_index` + offset),
/// so a sharded run — where each shard collects a subspan — drops
/// exactly the records the serial run drops, whatever the shard plan.
struct CollectOptions {
  const fault::FaultPlan* fault_plan = nullptr;  ///< null = no injection
  std::uint64_t base_index = 0;  ///< absolute index of records[0]
};

/// Runs the collector over one exported snapshot. A record whose
/// `netflow_export` fate is Timeout/Error is dropped before any
/// counting (UDP export loss between router and collector) and shows up
/// only in `dropped_records`.
[[nodiscard]] CollectionResult collect(std::span<const RawRecord> records,
                                       const TrackerIpIndex& trackers,
                                       const IspProfile& isp,
                                       const CollectOptions& options = {});

/// Sharded collection: record shards reduce to partial CollectionResults
/// that merge in shard order (counter sums and per-IP counter merges are
/// order-free, so the result equals the serial collect() bit for bit).
///
/// `registry` (optional) records a "netflow/collect" span, the
/// collected/internal/matched record counters, and the reduce channel's
/// throughput; never affects the result. `fault_plan` (optional)
/// applies `netflow_export` drops by absolute record index — the
/// sharded result stays bit-identical to serial collect() under the
/// same plan. The cbwt_fault_netflow_export_* counters are registered
/// only when the plan actually injects at that site.
[[nodiscard]] CollectionResult collect_sharded(std::span<const RawRecord> records,
                                               const TrackerIpIndex& trackers,
                                               const IspProfile& isp,
                                               runtime::ThreadPool* pool,
                                               obs::Registry* registry = nullptr,
                                               const fault::FaultPlan* fault_plan = nullptr);

}  // namespace cbwt::netflow
