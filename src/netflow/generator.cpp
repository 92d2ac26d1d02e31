#include "netflow/generator.h"

#include <algorithm>
#include <cmath>

#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "runtime/parallel.h"
#include "util/contract.h"
#include "util/prng.h"
#include "util/spare_vectors.h"

namespace cbwt::netflow {

AnonRecord anonymize(const RawRecord& record, bool subscriber_is_src,
                     std::string subscriber_country) {
  // Anonymization is the ethics boundary (§7.2): a record without a
  // subscriber country would leak through analysis unattributed.
  CBWT_EXPECTS(!subscriber_country.empty());
  AnonRecord anon;
  anon.subscriber_country = std::move(subscriber_country);
  anon.remote = subscriber_is_src ? record.dst : record.src;
  anon.remote_port = subscriber_is_src ? record.dst_port : record.src_port;
  anon.protocol = record.protocol;
  anon.direction = subscriber_is_src ? Direction::Outbound : Direction::Inbound;
  anon.packets = record.packets;
  anon.bytes = record.bytes;
  // The subscriber address must not survive into the anonymized form.
  CBWT_ENSURES(anon.remote == (subscriber_is_src ? record.dst : record.src));
  return anon;
}

namespace {

using Batch = std::vector<RawRecord>;

/// Samples `domains` by their organisations' popularity.
util::DiscreteSampler popularity_sampler(const world::World& world,
                                         const std::vector<world::DomainId>& domains) {
  std::vector<double> weights;
  weights.reserve(domains.size());
  for (const auto id : domains) weights.push_back(world.org(world.domain(id).org).popularity);
  return util::DiscreteSampler(weights);
}

/// Clean third-party services, which make up the background web flows.
std::vector<world::DomainId> clean_domain_ids(const world::World& world) {
  std::vector<world::DomainId> clean;
  for (const auto& domain : world.domains()) {
    if (world.org(domain.org).role == world::OrgRole::CleanService) clean.push_back(domain.id);
  }
  return clean;
}

}  // namespace

TrafficMix::TrafficMix(const world::World& world, const dns::Resolver& resolver,
                       const IspProfile& isp)
    : third_party_share_(isp.third_party_resolver_share),
      eyeball_(world.addresses().eyeball_blocks().at(std::string(isp.country))),
      origins_{resolver.origin_for(isp.country, false), resolver.origin_for(isp.country, true)},
      tracking_(world.tracking_domain_ids()),
      tracking_sampler_(popularity_sampler(world, tracking_)),
      clean_(clean_domain_ids(world)),
      clean_sampler_(popularity_sampler(world, clean_)) {}

double tracking_volume(const IspProfile& isp, const Snapshot& snapshot,
                       const GeneratorConfig& config) noexcept {
  return config.flows_per_subscriber_m * isp.subscribers_m * isp.web_activity *
         snapshot.volume_factor * config.scale;
}

namespace {

/// Ephemeral client port.
std::uint16_t client_port(util::Rng& rng) {
  return static_cast<std::uint16_t>(32768 + rng.next_below(28000));
}

RawRecord base_record(const GeneratorConfig& config, const net::IpAddress& subscriber,
                      const net::IpAddress& remote, util::Rng& rng) {
  RawRecord record;
  record.timestamp_s = static_cast<std::uint32_t>(rng.next_below(86400));
  record.router = static_cast<std::uint16_t>(rng.next_below(config.routers));
  record.interface = static_cast<std::uint16_t>(rng.next_below(8));
  record.internal_interface = true;
  const bool https = rng.chance(config.https_share);
  record.dst_port = https ? 443 : 80;
  record.protocol = (https && rng.chance(config.quic_share)) ? 17 : 6;
  record.src = subscriber;
  record.dst = remote;
  record.src_port = client_port(rng);
  record.packets = 1 + static_cast<std::uint32_t>(rng.next_below(40));
  record.bytes = record.packets * (60 + static_cast<std::uint32_t>(rng.next_below(1200)));
  return record;
}

// Per-stream RNG labels.
constexpr std::uint64_t kTrackingStream = 0x7F10;
constexpr std::uint64_t kBackgroundStream = 0x7F11;
constexpr std::uint64_t kPeeringStream = 0x7F12;

}  // namespace

SnapshotCounts generate_snapshot_stream(
    const world::World& world, const dns::Resolver& resolver, const IspProfile& isp,
    const Snapshot& snapshot, const GeneratorConfig& config, std::uint64_t seed,
    runtime::ThreadPool* pool,
    const std::function<void(std::span<const RawRecord>)>& sink,
    obs::Registry* registry, const fault::FaultPlan* fault_plan) {
  obs::ScopedSpan span(registry, "netflow/generate");
  const double tracking_target = tracking_volume(isp, snapshot, config);
  SnapshotCounts counts;
  counts.tracking_intended = static_cast<std::uint64_t>(std::llround(tracking_target));
  counts.background_intended = static_cast<std::uint64_t>(
      std::llround(tracking_target * config.background_ratio));
  const TrafficMix mix(world, resolver, isp);
  const auto dns_faults = fault::StageSite::resolve(fault_plan, fault::sites::kDns, registry);
  // One subscriber fetch of `domain_id`. The subscriber's lookup is
  // decided before it is resolved, so a failed lookup draws nothing more
  // and a surviving one draws exactly what the fault-free path draws. A
  // stale answer still resolves normally: zone data changes slower than
  // the stale window, so staleness surfaces in the pDNS layer instead.
  const auto emit = [&](world::DomainId domain_id, util::Rng& rng, Batch& out,
                        std::uint64_t key) {
    const dns::QueryOrigin& origin = mix.query_origin(rng);
    if (dns_faults.live() && !dns_faults.call(key).ok()) {
      dns_faults.metrics.count_degraded();
      return;  // the subscriber's fetch failed: no flow exported
    }
    const auto answer = resolver.resolve(domain_id, origin, rng);
    out.push_back(base_record(config, mix.subscriber_ip(rng), answer.ip, rng));
  };

  // Each stream (tracking, background) shards its record-index space;
  // every shard draws from its own shard_rng(seed, label, shard) stream
  // and shard outputs reach the sink in shard order, so the record
  // sequence is the same for any pool size.
  runtime::ChannelStats channel_stats;
  // Batches the sink is done with, refilled by later shards: a stream
  // allocates only as many batches as ordered_stream's window keeps alive.
  util::SpareVectors<RawRecord> spares;
  // The consumer hands each part straight to the sink, in shard order on
  // the calling thread, then returns it to the spares.
  const auto deliver = [&](std::size_t /*shard*/, Batch&& part) {
    counts.records += part.size();
    sink(std::span<const RawRecord>(part));
    spares.give(std::move(part));
  };
  const auto stream = [&](std::uint64_t count, std::uint64_t label, auto pick_domain) {
    runtime::ordered_stream(
        pool, count, {.channel_stats = &channel_stats},
        [&](runtime::ShardRange range, std::size_t shard) {
          obs::ScopedTrace trace(registry, "netflow/generate/shard", shard);
          auto rng = runtime::shard_rng(seed, label, shard);
          Batch part = spares.take();
          part.reserve(range.size());
          for (std::size_t i = range.begin; i < range.end; ++i) {
            emit(pick_domain(rng), rng, part, util::mix64(label ^ i));
          }
          return part;
        },
        deliver);
  };
  stream(counts.tracking_intended, kTrackingStream,
         [&](util::Rng& rng) { return mix.tracking_domain(rng); });
  if (mix.has_clean()) {
    stream(counts.background_intended, kBackgroundStream,
           [&](util::Rng& rng) { return mix.clean_domain(rng); });
  }

  // Peering-link noise the collector must filter out (only internal edge
  // routers carry user traffic, §7.2) is ~2% of the volume; one serial
  // shard suffices.
  // Batched to the sink so the streaming path never holds more than one
  // bounded buffer.
  const std::uint64_t peering = counts.records / 50;
  auto peering_rng = runtime::shard_rng(seed, kPeeringStream, 0);
  constexpr std::uint64_t kPeeringBatch = 64 * 1024;
  Batch peering_part = spares.take();
  peering_part.reserve(static_cast<std::size_t>(std::min(peering, kPeeringBatch)));
  for (std::uint64_t i = 0; i < peering; ++i) {
    // Two draws, sequenced explicitly (remote first) so the record does
    // not depend on the compiler's argument evaluation order.
    const net::IpAddress remote = mix.subscriber_ip(peering_rng);
    RawRecord record =
        base_record(config, mix.subscriber_ip(peering_rng), remote, peering_rng);
    record.internal_interface = false;
    peering_part.push_back(record);
    if (peering_part.size() == kPeeringBatch) {
      sink(std::span<const RawRecord>(peering_part));
      peering_part.clear();
    }
  }
  if (!peering_part.empty()) sink(std::span<const RawRecord>(peering_part));
  counts.records += peering;

  span.set_items(counts.records);
  if (registry != nullptr) {
    registry->counter("cbwt_netflow_records_generated_total").add(counts.records);
    registry->counter("cbwt_netflow_tracking_intended_total").add(counts.tracking_intended);
    registry->counter("cbwt_netflow_background_intended_total")
        .add(counts.background_intended);
    obs::record_channel_stats(registry, channel_stats);
  }
  return counts;
}

}  // namespace cbwt::netflow
