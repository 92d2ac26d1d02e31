#include "netflow/collector.h"

#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "runtime/parallel.h"
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
                         const IspProfile& isp, const CollectOptions& options) {
  CollectionResult result;
  const auto export_site = fault::StageSite::resolve(
      options.fault_plan, fault::sites::kNetflowExport, /*registry=*/nullptr);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    if (export_site.live()) {
      // One export datagram, one stateless drop decision on its absolute
      // index. Slow/stale exports still arrive (the collector is not
      // latency-sensitive); only Timeout/Error lose the record.
      if (fault::is_loss(export_site.decide(options.base_index + i, /*attempt=*/0))) {
        ++result.dropped_records;
        continue;
      }
    }
    ++result.records_seen;
    if (!record.internal_interface) continue;  // peering links carry no user edge
    ++result.internal_records;

    // Ingress filtering (BCP38) holds, so the subscriber side is simply
    // the side inside the ISP; the generator puts subscribers in src for
    // outbound flows, but we check both sides as the paper does.
    const bool dst_is_tracker = trackers.contains(record.dst);
    const bool src_is_tracker = trackers.contains(record.src);
    if (!dst_is_tracker && !src_is_tracker) continue;

    const bool subscriber_is_src = dst_is_tracker;
    const AnonRecord anon =
        anonymize(record, subscriber_is_src, std::string(isp.country));
    ++result.matched_records;
    if (anon.remote_port == 443) ++result.https_records;
    if (anon.protocol == 17) ++result.udp_records;
    ++result.per_ip[anon.remote];
  }
  // Counter funnel: every matched record is internal, every internal
  // record was seen. A violation means a counting branch was skipped.
  CBWT_ENSURES(result.matched_records <= result.internal_records);
  CBWT_ENSURES(result.internal_records <= result.records_seen);
  return result;
}

CollectionResult collect_sharded(std::span<const RawRecord> records,
                                 const TrackerIpIndex& trackers, const IspProfile& isp,
                                 runtime::ThreadPool* pool, obs::Registry* registry,
                                 const fault::FaultPlan* fault_plan) {
  obs::ScopedSpan span(registry, "netflow/collect");
  runtime::ChannelStats channel_stats;
  CollectionResult result;
  runtime::ordered_stream(
      pool, records.size(), {.channel_stats = &channel_stats},
      [&](runtime::ShardRange range, std::size_t shard) {
        obs::ScopedTrace trace(registry, "netflow/collect/shard", shard);
        // base_index anchors the shard's drop decisions to the absolute
        // record index, keeping them shard-plan-independent.
        return collect(records.subspan(range.begin, range.size()), trackers, isp,
                       {.fault_plan = fault_plan, .base_index = range.begin});
      },
      [&](std::size_t /*shard*/, CollectionResult&& part) {
        merge_collection(result, std::move(part));
      });
  CBWT_ENSURES(result.matched_records <= result.internal_records);
  CBWT_ENSURES(result.internal_records <= result.records_seen);
  CBWT_ENSURES(result.records_seen + result.dropped_records == records.size());

  span.set_items(result.records_seen);
  if (registry != nullptr) {
    registry->counter("cbwt_netflow_records_collected_total").add(result.records_seen);
    registry->counter("cbwt_netflow_internal_total").add(result.internal_records);
    registry->counter("cbwt_netflow_matched_total").add(result.matched_records);
    obs::record_channel_stats(registry, channel_stats);
  }
  const auto export_metrics =
      fault::StageSite::resolve(fault_plan, fault::sites::kNetflowExport, registry).metrics;
  export_metrics.count_injected(result.dropped_records);
  export_metrics.count_degraded(result.dropped_records);
  return result;
}

}  // namespace cbwt::netflow
