#include "netflow/collector.h"

#include "obs/trace.h"
#include "util/contract.h"

namespace cbwt::netflow {

void TrackerIpIndex::add(const net::IpAddress& ip) { ips_.insert(ip); }

bool TrackerIpIndex::contains(const net::IpAddress& ip) const noexcept {
  return ips_.contains(ip);
}

std::vector<analysis::Flow> CollectionResult::flows(std::string origin_country) const {
  std::vector<analysis::Flow> out;
  out.reserve(per_ip.size());
  for (const auto& [ip, count] : per_ip) {
    analysis::Flow flow;
    flow.origin_country = origin_country;
    flow.destination = ip;
    flow.weight = count;
    out.push_back(std::move(flow));
  }
  return out;
}

void merge_collection(CollectionResult& acc, CollectionResult&& part) {
  acc.records_seen += part.records_seen;
  acc.internal_records += part.internal_records;
  acc.matched_records += part.matched_records;
  acc.https_records += part.https_records;
  acc.udp_records += part.udp_records;
  acc.dropped_records += part.dropped_records;
  for (const auto& [ip, count] : part.per_ip) acc.per_ip[ip] += count;
}

CollectionResult collect(std::span<const RawRecord> records, const TrackerIpIndex& trackers,
                         const IspProfile& isp, const fault::StageSite& export_site,
                         std::uint64_t base_index) {
  CollectionResult result;
  const auto is_tracker = [&trackers](const net::IpAddress& ip) {
    return trackers.contains(ip);
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    // One export datagram, one stateless drop decision on its absolute
    // index. Slow/stale exports still arrive (the collector is not
    // latency-sensitive); only Timeout/Error lose the record.
    if (export_site.live() &&
        fault::is_loss(export_site.decide(base_index + i, /*attempt=*/0))) {
      ++result.dropped_records;
      continue;
    }
    collect_record(records[i], is_tracker, isp, result);
  }
  // Counter funnel: every matched record is internal, every internal
  // record was seen. A violation means a counting branch was skipped.
  CBWT_ENSURES(result.matched_records <= result.internal_records);
  CBWT_ENSURES(result.internal_records <= result.records_seen);
  return result;
}

CollectionResult collect_snapshot(const world::World& world, const dns::Resolver& resolver,
                                  const IspProfile& isp, const Snapshot& snapshot,
                                  const GeneratorConfig& config, std::uint64_t seed,
                                  const TrackerIpIndex& trackers, runtime::ThreadPool* pool,
                                  obs::Registry* registry,
                                  const fault::FaultPlan* fault_plan) {
  obs::ScopedSpan span(registry, "netflow/collect");
  const auto export_site =
      fault::StageSite::resolve(fault_plan, fault::sites::kNetflowExport, registry);
  CollectionResult result;
  std::uint64_t base_index = 0;
  const auto counts = generate_snapshot_stream(
      world, resolver, isp, snapshot, config, seed, pool,
      [&](std::span<const RawRecord> batch) {
        merge_collection(result, collect(batch, trackers, isp, export_site, base_index));
        base_index += batch.size();
      },
      registry, fault_plan);
  CBWT_ENSURES(result.records_seen + result.dropped_records == counts.records);

  span.set_items(result.records_seen);
  if (registry != nullptr) {
    registry->counter("cbwt_netflow_records_collected_total").add(result.records_seen);
    registry->counter("cbwt_netflow_internal_total").add(result.internal_records);
    registry->counter("cbwt_netflow_matched_total").add(result.matched_records);
  }
  export_site.metrics.count_injected(result.dropped_records);
  export_site.metrics.count_degraded(result.dropped_records);
  return result;
}

}  // namespace cbwt::netflow
