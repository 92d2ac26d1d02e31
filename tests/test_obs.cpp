#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "json_check.h"
#include "report/json.h"
#include "runtime/parallel.h"

namespace cbwt::obs {
namespace {

// --- counters / gauges ----------------------------------------------

TEST(Counter, AccumulatesAndDefaultsToOne) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, SetAddAndHighWater) {
  Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  gauge.max_of(1.0);  // lower: no change
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  gauge.max_of(7.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.0);
}

TEST(Registry, FindOrCreateReturnsStableHandles) {
  Registry registry;
  Counter& a = registry.counter("cbwt_obs_test_total");
  Counter& b = registry.counter("cbwt_obs_test_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(registry.counter_value("cbwt_obs_test_total"), 3u);
  EXPECT_EQ(registry.counter_value("never_created"), 0u);

  // Later insertions must not invalidate earlier handles.
  for (int i = 0; i < 100; ++i) {
    (void)registry.counter("cbwt_obs_filler_" + std::to_string(i) + "_total");
  }
  a.add(1);
  EXPECT_EQ(registry.counter_value("cbwt_obs_test_total"), 4u);
}

TEST(Registry, ConcurrentUpdatesAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Registry registry;
  const std::array<double, 3> bounds = {1.0, 2.0, 3.0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &bounds] {
      // Half the threads race the find-or-create path too.
      Counter& counter = registry.counter("cbwt_obs_test_hits_total");
      Gauge& gauge = registry.gauge("cbwt_obs_test_level");
      Histogram& histogram = registry.histogram("cbwt_obs_test_seconds", bounds);
      for (int i = 0; i < kPerThread; ++i) {
        counter.add(1);
        gauge.add(1.0);
        histogram.observe(1.5);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.counter_value("cbwt_obs_test_hits_total"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(registry.gauge("cbwt_obs_test_level").value(),
                   static_cast<double>(kThreads) * kPerThread);
  const Histogram& histogram = registry.histogram("cbwt_obs_test_seconds", bounds);
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(histogram.sum(), 1.5 * kThreads * kPerThread);
}

// --- histogram bucket edges ------------------------------------------

TEST(Histogram, InclusiveUpperBoundsAndOverflow) {
  const std::array<double, 3> bounds = {1.0, 10.0, 100.0};
  Histogram histogram{std::span<const double>(bounds)};
  histogram.observe(0.5);    // <= 1.0
  histogram.observe(1.0);    // == bound: inclusive (Prometheus `le`)
  histogram.observe(1.0001); // next bucket
  histogram.observe(10.0);
  histogram.observe(99.0);
  histogram.observe(100.0);
  histogram.observe(1e9);    // overflow
  const auto counts = histogram.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(histogram.count(), 7u);
}

TEST(Registry, HistogramBoundsConsultedOnFirstCreationOnly) {
  Registry registry;
  const std::array<double, 2> first = {1.0, 2.0};
  const std::array<double, 3> second = {5.0, 6.0, 7.0};
  Histogram& a = registry.histogram("cbwt_obs_test_seconds", first);
  Histogram& b = registry.histogram("cbwt_obs_test_seconds", second);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.bounds(), (std::vector<double>{1.0, 2.0}));
}

// --- spans ------------------------------------------------------------

TEST(ScopedSpan, RecordsNestingParentAndItems) {
  Registry registry;
  {
    ScopedSpan outer(&registry, "study/outer");
    outer.set_items(10);
    {
      ScopedSpan inner(&registry, "study/inner");
      inner.set_items(3);
      inner.add_items(4);
    }
  }
  const auto spans = registry.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Spans record on close, so the inner one lands first.
  EXPECT_EQ(spans[0].name, "study/inner");
  EXPECT_EQ(spans[0].parent, "study/outer");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[0].items, 7u);
  EXPECT_EQ(spans[1].name, "study/outer");
  EXPECT_EQ(spans[1].parent, "");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_EQ(spans[1].items, 10u);
  for (const auto& span : spans) {
    EXPECT_GE(span.wall_seconds, 0.0);
    EXPECT_GE(span.process_cpu_seconds, 0.0);
    EXPECT_GE(span.thread_cpu_seconds, 0.0);
  }
}

TEST(ScopedSpan, NullRegistryIsANoOp) {
  ScopedSpan span(nullptr, "study/nothing");
  span.set_items(99);  // must not crash or record anywhere
}

// --- runtime bridges --------------------------------------------------

TEST(RuntimeMetrics, ChannelStatsRecordedAndZeroStatsSkipped) {
  Registry registry;
  runtime::ChannelStats zero;
  record_channel_stats(&registry, zero);  // serial path: nothing recorded
  EXPECT_TRUE(registry.counters().empty());

  runtime::ChannelStats stats;
  stats.pushed = 12;
  stats.popped = 12;
  stats.high_water = 3;
  stats.producer_stalls = 2;
  stats.producer_stall_ns = 1500000000;  // 1.5 s
  record_channel_stats(&registry, stats);
  record_channel_stats(nullptr, stats);  // null registry: no-op
  EXPECT_EQ(registry.counter_value("cbwt_runtime_channel_pushed_total"), 12u);
  EXPECT_EQ(registry.counter_value("cbwt_runtime_channel_popped_total"), 12u);
  EXPECT_EQ(registry.counter_value("cbwt_runtime_channel_producer_stalls_total"), 2u);
  EXPECT_DOUBLE_EQ(registry.gauge("cbwt_runtime_channel_high_water").value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.gauge("cbwt_runtime_channel_producer_stall_seconds").value(),
                   1.5);

  // A second stage with a lower high-water must not lower the mark.
  runtime::ChannelStats lower;
  lower.pushed = 1;
  lower.popped = 1;
  lower.high_water = 1;
  record_channel_stats(&registry, lower);
  EXPECT_DOUBLE_EQ(registry.gauge("cbwt_runtime_channel_high_water").value(), 3.0);
}

TEST(ChannelStats, AccumulateSumsAndKeepsHighWater) {
  runtime::ChannelStats acc;
  runtime::ChannelStats part;
  part.pushed = 5;
  part.popped = 4;
  part.high_water = 2;
  part.consumer_stalls = 1;
  part.consumer_stall_ns = 10;
  acc.accumulate(part);
  part.high_water = 1;
  acc.accumulate(part);
  EXPECT_EQ(acc.pushed, 10u);
  EXPECT_EQ(acc.popped, 8u);
  EXPECT_EQ(acc.high_water, 2u);
  EXPECT_EQ(acc.consumer_stalls, 2u);
  EXPECT_EQ(acc.consumer_stall_ns, 20u);
}

// --- exporters --------------------------------------------------------

Registry& populated_registry() {
  static Registry registry;
  static bool done = false;
  if (!done) {
    done = true;
    registry.counter("cbwt_classify_requests_total").add(100);
    registry.gauge("cbwt_runtime_pool_size").set(4.0);
    const std::array<double, 2> bounds = {0.1, 1.0};
    Histogram& histogram = registry.histogram("cbwt_geoloc_measure_seconds", bounds);
    histogram.observe(0.05);
    histogram.observe(0.5);
    histogram.observe(5.0);
    {
      ScopedSpan span(&registry, "study/classify");
      span.set_items(100);
    }
  }
  return registry;
}

TEST(Export, JsonIsValidAndCarriesEverySection) {
  report::JsonWriter json;
  write_json(populated_registry(), json);
  const std::string text = json.str();
  EXPECT_TRUE(testing::JsonChecker::valid(text)) << text;
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"cbwt_classify_requests_total\":100"), std::string::npos);
  EXPECT_NE(text.find("\"gauges\""), std::string::npos);
  EXPECT_NE(text.find("\"histograms\""), std::string::npos);
  EXPECT_NE(text.find("\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("\"spans\""), std::string::npos);
  EXPECT_NE(text.find("\"study/classify\""), std::string::npos);
}

TEST(Export, EmptyRegistryStillValidJson) {
  const Registry empty;
  report::JsonWriter json;
  write_json(empty, json);
  EXPECT_TRUE(testing::JsonChecker::valid(json.str())) << json.str();
}

TEST(Export, PrometheusDumpHasTypesAndCumulativeBuckets) {
  const std::string text = to_prometheus(populated_registry());
  EXPECT_NE(text.find("# TYPE cbwt_classify_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("cbwt_classify_requests_total 100"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cbwt_runtime_pool_size gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cbwt_geoloc_measure_seconds histogram"),
            std::string::npos);
  // Cumulative buckets: le="1" holds both finite observations, +Inf all.
  EXPECT_NE(text.find("cbwt_geoloc_measure_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("cbwt_geoloc_measure_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("cbwt_obs_span_wall_seconds"), std::string::npos);
  EXPECT_NE(text.find("cbwt_obs_span_process_cpu_seconds"), std::string::npos);
  EXPECT_NE(text.find("cbwt_obs_span_thread_cpu_seconds"), std::string::npos);
  EXPECT_NE(text.find("name=\"study/classify\""), std::string::npos);
}

}  // namespace
}  // namespace cbwt::obs
