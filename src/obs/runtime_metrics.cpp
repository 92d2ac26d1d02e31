#include "obs/runtime_metrics.h"

namespace cbwt::obs {

void record_channel_stats(Registry* registry, const runtime::ChannelStats& stats) {
  if (registry == nullptr) return;
  if (stats.pushed == 0 && stats.popped == 0 && stats.producer_stalls == 0 &&
      stats.consumer_stalls == 0) {
    return;  // serial path: no claim window ever existed
  }
  registry->counter("cbwt_runtime_channel_pushed_total").add(stats.pushed);
  registry->counter("cbwt_runtime_channel_popped_total").add(stats.popped);
  registry->counter("cbwt_runtime_channel_producer_stalls_total")
      .add(stats.producer_stalls);
  registry->counter("cbwt_runtime_channel_consumer_stalls_total")
      .add(stats.consumer_stalls);
  registry->gauge("cbwt_runtime_channel_high_water")
      .max_of(static_cast<double>(stats.high_water));
  registry->gauge("cbwt_runtime_channel_producer_stall_seconds")
      .add(static_cast<double>(stats.producer_stall_ns) * 1e-9);
  registry->gauge("cbwt_runtime_channel_consumer_stall_seconds")
      .add(static_cast<double>(stats.consumer_stall_ns) * 1e-9);
}

void record_pool_stats(Registry* registry, const runtime::ThreadPool& pool) {
  if (registry == nullptr) return;
  const auto stats = pool.stats();
  registry->gauge("cbwt_runtime_pool_size").set(static_cast<double>(pool.size()));
  registry->gauge("cbwt_runtime_pool_queue_depth")
      .set(static_cast<double>(pool.pending()));
  registry->gauge("cbwt_runtime_pool_tasks_submitted")
      .set(static_cast<double>(stats.submitted));
  registry->gauge("cbwt_runtime_pool_tasks_executed")
      .set(static_cast<double>(stats.executed));
  registry->gauge("cbwt_runtime_pool_tasks_stolen").set(static_cast<double>(stats.stolen));
}

}  // namespace cbwt::obs
