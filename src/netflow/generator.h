// Synthetic NetFlow export for one ISP and one snapshot day. The
// generator produces the *sampled* stream directly (packet sampling at a
// fixed rate is what real exporters do; simulating unsampled traffic for
// 15M households would only be thrown away again). Volumes are scaled by
// `NetflowScale` relative to the paper's Table 8 and the scale is
// reported alongside every result.
#pragma once

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

/// One ISP-day of sampled records, plus bookkeeping for the analysis.
struct SnapshotExport {
  std::vector<RawRecord> records;
  std::uint64_t tracking_intended = 0;   ///< ground-truth tracking records
  std::uint64_t background_intended = 0;
};

/// Sharded generation: record index space is split by plan_shards and
/// every shard draws from its own RNG derived from (seed, stream label,
/// shard), so the exported records are bit-identical for any pool size
/// — including pool == nullptr, which is the serial reference. Record
/// order is shard order (deterministic), not interleaved arrival order.
///
/// `registry` (optional) records a "netflow/generate" span, the
/// generated/tracking/background record counters, and the sharded
/// streams' channel throughput; never affects the exported records.
///
/// `fault_plan` (optional) subjects each record's subscriber DNS lookup
/// to the `dns` injection site: a lookup that exhausts its retries emits
/// no flow — the subscriber's fetch simply failed. The lookup's fate is
/// a pure function of the record's stream index, so the export stays
/// bit-identical across pool sizes.
[[nodiscard]] SnapshotExport generate_snapshot_sharded(const world::World& world,
                                                       const dns::Resolver& resolver,
                                                       const IspProfile& isp,
                                                       const Snapshot& snapshot,
                                                       const GeneratorConfig& config,
                                                       std::uint64_t seed,
                                                       runtime::ThreadPool* pool,
                                                       obs::Registry* registry = nullptr,
                                                       const fault::FaultPlan* fault_plan = nullptr);

/// Bookkeeping of one streamed snapshot; the record payload went to the
/// sink rather than a returned vector.
struct SnapshotCounts {
  std::uint64_t records = 0;
  std::uint64_t tracking_intended = 0;
  std::uint64_t background_intended = 0;
};

/// Streaming form of generate_snapshot_sharded: delivers the *identical*
/// record sequence (same seed ⇒ same records in the same order, at any
/// pool size) to `sink` as ordered batches instead of accumulating one
/// vector. generate_snapshot_sharded is this with an appending sink;
/// store-backed export (netflow/snapshot_store.h) is this with a
/// RecordFileWriter sink — which is how the two paths stay bit-identical
/// by construction. `sink` runs on the calling thread, in order.
[[nodiscard]] SnapshotCounts generate_snapshot_stream(
    const world::World& world, const dns::Resolver& resolver, const IspProfile& isp,
    const Snapshot& snapshot, const GeneratorConfig& config, std::uint64_t seed,
    runtime::ThreadPool* pool,
    const std::function<void(std::span<const RawRecord>)>& sink,
    obs::Registry* registry = nullptr, const fault::FaultPlan* fault_plan = nullptr);

}  // namespace cbwt::netflow
