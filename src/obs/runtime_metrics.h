// Bridges cbwt::runtime's internal counters into the registry. The
// runtime layer stays observability-agnostic (it only exposes plain
// stats structs); instrumented modules call these helpers to surface
// what their parallel stages did.
#pragma once

#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace cbwt::obs {

/// Folds one stage's accumulated claim-window counters into
/// cbwt_runtime_channel_* (counters for throughput/stalls, gauges for
/// the high-water mark and accumulated stall seconds). No-op when
/// `registry` is null or the stats are all zero (serial path).
void record_channel_stats(Registry* registry, const runtime::ChannelStats& stats);

/// Snapshots the pool's lifetime counters and queue depth into
/// cbwt_runtime_pool_* gauges. No-op when `registry` is null.
void record_pool_stats(Registry* registry, const runtime::ThreadPool& pool);

}  // namespace cbwt::obs
