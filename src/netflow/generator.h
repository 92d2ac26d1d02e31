// Synthetic NetFlow export for one ISP and one snapshot day. The
// generator produces the *sampled* stream directly (packet sampling at a
// fixed rate is what real exporters do; simulating unsampled traffic for
// 15M households would only be thrown away again). Volumes are scaled by
// `NetflowScale` relative to the paper's Table 8 and the scale is
// reported alongside every result.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dns/resolver.h"
#include "fault/retry.h"
#include "netflow/profile.h"
#include "netflow/record.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "util/prng.h"
#include "world/world.h"

namespace cbwt::netflow {

struct GeneratorConfig {
  /// Multiplier on the paper-scale sampled-flow volume (1.0 would emit
  /// DE-Broadband's full 1.057e9 records per day).
  double scale = 1e-3;
  /// Sampled tracking flows per subscriber-million per day at
  /// web_activity 1.0, calibrated against Table 8 (DE-Broadband: 15 M
  /// households -> ~1.05e9 sampled flows).
  double flows_per_subscriber_m = 70.0e6;
  /// Non-tracking web flows emitted per tracking flow (kept small; the
  /// "tracking is ~3% of all flows" figure is reported analytically).
  double background_ratio = 0.25;
  /// Port mix (Table 8 text: >83% of tracking traffic on 443).
  double https_share = 0.834;
  /// Share of 443 traffic on UDP/QUIC.
  double quic_share = 0.12;
  std::uint16_t routers = 48;
};

/// The part of the traffic model that comes from the world and the ISP,
/// shared by the NetFlow and sFlow generators so both sample one mix:
/// popularity-weighted tracking and clean-service domains, the ISP
/// country's two query origins (its own resolver, a public one) and its
/// subscriber eyeball block. Read-only once built; every draw goes
/// through the caller's rng, so each generator keeps its own draw order.
class TrafficMix {
 public:
  TrafficMix(const world::World& world, const dns::Resolver& resolver,
             const IspProfile& isp);

  [[nodiscard]] world::DomainId tracking_domain(util::Rng& rng) const {
    return tracking_[tracking_sampler_.sample(rng)];
  }
  /// False when the world has no clean services to emit background for.
  [[nodiscard]] bool has_clean() const noexcept { return !clean_.empty(); }
  [[nodiscard]] world::DomainId clean_domain(util::Rng& rng) const {
    return clean_[clean_sampler_.sample(rng)];
  }
  /// The subscriber's query origin: a public resolver with the ISP's
  /// third-party share, else the ISP's own.
  [[nodiscard]] const dns::QueryOrigin& query_origin(util::Rng& rng) const {
    return origins_[rng.chance(third_party_share_) ? 1 : 0];
  }
  /// Subscriber addresses come from the ISP country's eyeball block; the
  /// exact address is irrelevant post-anonymization, so a random offset
  /// inside the block is enough.
  [[nodiscard]] net::IpAddress subscriber_ip(util::Rng& rng) const {
    return eyeball_.at(rng.next_below(1ULL << 20));
  }

 private:
  double third_party_share_;
  net::IpPrefix eyeball_;
  std::array<dns::QueryOrigin, 2> origins_;
  std::vector<world::DomainId> tracking_;
  util::DiscreteSampler tracking_sampler_;
  std::vector<world::DomainId> clean_;
  util::DiscreteSampler clean_sampler_;
};

/// Intended sampled tracking volume of one ISP-day, before rounding:
/// the per-subscriber rate times subscribers, web activity, the day's
/// volume drift and the scale.
[[nodiscard]] double tracking_volume(const IspProfile& isp, const Snapshot& snapshot,
                                     const GeneratorConfig& config) noexcept;

/// Bookkeeping of one streamed snapshot; the record payload went to the
/// sink rather than a returned vector.
struct SnapshotCounts {
  std::uint64_t records = 0;
  std::uint64_t tracking_intended = 0;
  std::uint64_t background_intended = 0;
};

/// Generates one ISP-day and delivers its records to `sink` as ordered
/// batches. The record index space of each stream (tracking, background)
/// is split by plan_shards and every shard draws from its own RNG derived
/// from (seed, stream label, shard), so the record sequence is
/// bit-identical for any pool size — including pool == nullptr, the
/// serial reference. `sink` runs on the calling thread, in order. The
/// in-memory day (collect_snapshot, netflow/collector.h) is this with a
/// collecting sink and store-backed export (netflow/snapshot_store.h)
/// is this with a RecordFileWriter sink, which is how the two paths stay
/// bit-identical by construction.
///
/// `registry` (optional) records a "netflow/generate" span, the
/// generated/tracking/background record counters, and the sharded
/// streams' claim-window throughput; never affects the records.
///
/// `fault_plan` (optional) subjects each record's subscriber DNS lookup
/// to the `dns` injection site: a lookup that exhausts its retries emits
/// no flow — the subscriber's fetch simply failed. The lookup's fate is
/// a pure function of the record's stream index, so the records stay
/// bit-identical across pool sizes.
[[nodiscard]] SnapshotCounts generate_snapshot_stream(
    const world::World& world, const dns::Resolver& resolver, const IspProfile& isp,
    const Snapshot& snapshot, const GeneratorConfig& config, std::uint64_t seed,
    runtime::ThreadPool* pool,
    const std::function<void(std::span<const RawRecord>)>& sink,
    obs::Registry* registry = nullptr, const fault::FaultPlan* fault_plan = nullptr);

}  // namespace cbwt::netflow
