#include "netflow/generator.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "runtime/parallel.h"
#include "util/contract.h"
#include "util/prng.h"

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

/// Read-only emission state shared by every shard of one snapshot.
struct EmissionContext {
  EmissionContext(const world::World& world, const dns::Resolver& dns_resolver,
                  const IspProfile& isp_profile, const GeneratorConfig& generator_config,
                  fault::StageSite dns_site)
      : resolver(dns_resolver), isp(isp_profile), config(generator_config),
        dns_faults(dns_site),
        eyeball(world.addresses().eyeball_blocks().at(std::string(isp_profile.country))),
        origins{dns_resolver.origin_for(isp_profile.country, false),
                dns_resolver.origin_for(isp_profile.country, true)} {
    // Popularity-weighted tracking domains (per-domain DNS then applies
    // the org's policy with the subscriber's resolver situation).
    tracking = world.tracking_domain_ids();
    std::vector<double> weights;
    weights.reserve(tracking.size());
    for (const auto id : tracking) {
      weights.push_back(world.org(world.domain(id).org).popularity);
    }
    tracking_sampler = util::DiscreteSampler(weights);
    // Clean third-party services make up the background web flows.
    weights.clear();
    for (const auto& domain : world.domains()) {
      if (world.org(domain.org).role == world::OrgRole::CleanService) {
        clean.push_back(domain.id);
        weights.push_back(world.org(domain.org).popularity);
      }
    }
    clean_sampler = util::DiscreteSampler(weights);
  }

  /// Subscriber addresses come from the ISP country's eyeball block; the
  /// exact address is irrelevant post-anonymization, so a random offset
  /// inside the block is enough.
  [[nodiscard]] net::IpAddress subscriber_ip(util::Rng& rng) const {
    return eyeball.at(rng.next_below(1ULL << 20));
  }

  /// The subscriber's lookup is decided before it is resolved, so a
  /// failed lookup draws nothing more and a surviving one draws exactly
  /// what the fault-free path draws. A stale answer still resolves
  /// normally: zone data changes slower than the stale window, so
  /// staleness surfaces in the pDNS layer instead.
  void emit(world::DomainId domain_id, util::Rng& rng, std::vector<RawRecord>& out,
            std::uint64_t key) const {
    const bool third_party_dns = rng.chance(isp.third_party_resolver_share);
    if (dns_faults.live() && !dns_faults.call(key).ok()) {
      dns_faults.metrics.count_degraded();
      return;  // the subscriber's fetch failed: no flow exported
    }
    const auto answer = resolver.resolve(domain_id, origins[third_party_dns ? 1 : 0], rng);
    out.push_back(base_record(config, subscriber_ip(rng), answer.ip, rng));
  }

  void emit_tracking(util::Rng& rng, std::vector<RawRecord>& out, std::uint64_t key) const {
    emit(tracking[tracking_sampler.sample(rng)], rng, out, key);
  }

  void emit_background(util::Rng& rng, std::vector<RawRecord>& out,
                       std::uint64_t key) const {
    if (clean.empty()) return;
    emit(clean[clean_sampler.sample(rng)], rng, out, key);
  }

  const dns::Resolver& resolver;
  const IspProfile& isp;
  const GeneratorConfig& config;
  fault::StageSite dns_faults;
  net::IpPrefix eyeball;
  /// The ISP country's query origins: its own resolver, a public one.
  std::array<dns::QueryOrigin, 2> origins;
  std::vector<world::DomainId> tracking;
  util::DiscreteSampler tracking_sampler;
  std::vector<world::DomainId> clean;
  util::DiscreteSampler clean_sampler;
};

void intended_volumes(const IspProfile& isp, const Snapshot& snapshot,
                      const GeneratorConfig& config, SnapshotExport& out) {
  const double tracking_target = config.flows_per_subscriber_m * isp.subscribers_m *
                                 isp.web_activity * snapshot.volume_factor * config.scale;
  out.tracking_intended = static_cast<std::uint64_t>(std::llround(tracking_target));
  out.background_intended = static_cast<std::uint64_t>(
      std::llround(tracking_target * config.background_ratio));
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
  SnapshotExport intended;
  intended_volumes(isp, snapshot, config, intended);
  SnapshotCounts counts;
  counts.tracking_intended = intended.tracking_intended;
  counts.background_intended = intended.background_intended;
  const EmissionContext context(
      world, resolver, isp, config,
      fault::StageSite::resolve(fault_plan, fault::sites::kDns, registry));

  // Each stream (tracking, background) shards its record-index space;
  // every shard draws from its own shard_rng(seed, label, shard) stream
  // and shard outputs reach the sink in shard order, so the record
  // sequence is the same for any pool size.
  using Batch = std::vector<RawRecord>;
  runtime::ChannelStats channel_stats;
  // The consumer hands each part straight to the sink, in shard order on
  // the calling thread.
  const auto deliver = [&](std::size_t /*shard*/, Batch&& part) {
    counts.records += part.size();
    sink(std::span<const RawRecord>(part));
  };
  const auto stream = [&](std::uint64_t count, std::uint64_t label, auto emit_one) {
    runtime::ordered_stream(
        pool, count, {.channel_stats = &channel_stats},
        [&](runtime::ShardRange range, std::size_t shard) {
          obs::ScopedTrace trace(registry, "netflow/generate/shard", shard);
          auto rng = runtime::shard_rng(seed, label, shard);
          Batch part;
          part.reserve(range.size());
          for (std::size_t i = range.begin; i < range.end; ++i) {
            emit_one(rng, part, util::mix64(label ^ i));
          }
          return part;
        },
        deliver);
  };
  stream(counts.tracking_intended, kTrackingStream,
         [&](util::Rng& rng, Batch& part, std::uint64_t key) {
           context.emit_tracking(rng, part, key);
         });
  stream(counts.background_intended, kBackgroundStream,
         [&](util::Rng& rng, Batch& part, std::uint64_t key) {
           context.emit_background(rng, part, key);
         });

  // Peering-link noise the collector must filter out (only internal edge
  // routers carry user traffic, §7.2) is ~2% of the volume; one serial
  // shard suffices.
  // Batched to the sink so the streaming path never holds more than one
  // bounded buffer.
  const std::uint64_t peering = counts.records / 50;
  auto peering_rng = runtime::shard_rng(seed, kPeeringStream, 0);
  constexpr std::uint64_t kPeeringBatch = 64 * 1024;
  Batch peering_part;
  peering_part.reserve(static_cast<std::size_t>(std::min(peering, kPeeringBatch)));
  for (std::uint64_t i = 0; i < peering; ++i) {
    RawRecord record = base_record(config, context.subscriber_ip(peering_rng),
                                   context.subscriber_ip(peering_rng), peering_rng);
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

SnapshotExport generate_snapshot_sharded(const world::World& world,
                                         const dns::Resolver& resolver,
                                         const IspProfile& isp, const Snapshot& snapshot,
                                         const GeneratorConfig& config, std::uint64_t seed,
                                         runtime::ThreadPool* pool,
                                         obs::Registry* registry,
                                         const fault::FaultPlan* fault_plan) {
  SnapshotExport out;
  intended_volumes(isp, snapshot, config, out);
  out.records.reserve(out.tracking_intended + out.background_intended);
  const auto counts = generate_snapshot_stream(
      world, resolver, isp, snapshot, config, seed, pool,
      [&out](std::span<const RawRecord> batch) {
        out.records.insert(out.records.end(), batch.begin(), batch.end());
      },
      registry, fault_plan);
  out.tracking_intended = counts.tracking_intended;
  out.background_intended = counts.background_intended;
  CBWT_ENSURES(out.records.size() == counts.records);
  return out;
}

}  // namespace cbwt::netflow
