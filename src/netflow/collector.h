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
#include "dns/resolver.h"
#include "fault/retry.h"
#include "netflow/generator.h"
#include "netflow/profile.h"
#include "netflow/record.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "world/world.h"

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
/// aggregation path (streamed batches, join probe shards), so they
/// cannot drift.
void merge_collection(CollectionResult& acc, CollectionResult&& part);

/// The §7.2 decision for one record that reached the collector, shared
/// by collect() and the out-of-core join's probe: keep user-facing
/// (internal edge) records only, require a tracker IP on either side,
/// anonymize the subscriber side to the ISP's country, then count the
/// https, udp and per-tracker-IP hits. `is_tracker(ip)` answers
/// tracker-list membership; it is asked about dst, then src.
template <typename IsTracker>
void collect_record(const RawRecord& record, const IsTracker& is_tracker,
                    const IspProfile& isp, CollectionResult& result) {
  ++result.records_seen;
  if (!record.internal_interface) return;  // peering links carry no user edge
  ++result.internal_records;
  // Ingress filtering (BCP38) holds, so the subscriber side is simply
  // the side inside the ISP; the generator puts subscribers in src for
  // outbound flows, but we check both sides as the paper does.
  const bool dst_is_tracker = is_tracker(record.dst);
  if (!dst_is_tracker && !is_tracker(record.src)) return;
  const AnonRecord anon =
      anonymize(record, /*subscriber_is_src=*/dst_is_tracker, std::string(isp.country));
  ++result.matched_records;
  if (anon.remote_port == 443) ++result.https_records;
  if (anon.protocol == 17) ++result.udp_records;
  ++result.per_ip[anon.remote];
}

/// Runs the collector over `records`, the records of one exported
/// snapshot starting at absolute index `base_index`. A record whose
/// `netflow_export` fate is Timeout/Error is dropped before any counting
/// (UDP export loss between router and collector) and shows up only in
/// `dropped_records`. The drop decision is stateless in the absolute
/// index, so collecting a snapshot batch by batch drops exactly the
/// records one call over the whole snapshot drops.
[[nodiscard]] CollectionResult collect(std::span<const RawRecord> records,
                                       const TrackerIpIndex& trackers,
                                       const IspProfile& isp,
                                       const fault::StageSite& export_site = {},
                                       std::uint64_t base_index = 0);

/// One in-memory ISP day: generate_snapshot_stream delivers the
/// snapshot in ordered batches and each batch goes through collect() at
/// its absolute base index as it arrives, so the snapshot is never
/// materialised. The result equals collect() over the whole generated
/// record sequence bit for bit, at any pool size and under any
/// `fault_plan` (whose `netflow_export` drops apply by absolute index and
/// whose `dns` site shapes the generated records).
///
/// `registry` (optional) records a "netflow/collect" span around the
/// "netflow/generate" one, the collected/internal/matched record
/// counters, and the cbwt_fault_netflow_export_* counters when the plan
/// injects at that site; never affects the result.
[[nodiscard]] CollectionResult collect_snapshot(
    const world::World& world, const dns::Resolver& resolver, const IspProfile& isp,
    const Snapshot& snapshot, const GeneratorConfig& config, std::uint64_t seed,
    const TrackerIpIndex& trackers, runtime::ThreadPool* pool,
    obs::Registry* registry = nullptr, const fault::FaultPlan* fault_plan = nullptr);

}  // namespace cbwt::netflow
