#include "runtime/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/study.h"
#include "netflow/profile.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"
#include "runtime/thread_pool.h"
#include "util/contract.h"

namespace cbwt::runtime {
namespace {

// --- ThreadPool ------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains the queues
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&counter, &pool] {
        counter.fetch_add(1, std::memory_order_relaxed);
        pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
      });
    }
  }
  EXPECT_EQ(counter.load(), 128);
}

TEST(ThreadPool, StressManySubmitters) {
  std::atomic<std::uint64_t> sum{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> submitters;
    for (int s = 0; s < 4; ++s) {
      submitters.emplace_back([&] {
        for (std::uint64_t i = 1; i <= 2000; ++i) {
          pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
        }
      });
    }
    for (auto& thread : submitters) thread.join();
  }
  EXPECT_EQ(sum.load(), 4ull * 2000ull * 2001ull / 2ull);
}

// --- Shard planning and parallel primitives --------------------------

TEST(PlanShards, CoversRangeContiguously) {
  const auto plan = plan_shards(10000, {.min_shard_items = 128, .max_shards = 16});
  ASSERT_FALSE(plan.empty());
  EXPECT_LE(plan.size(), 16u);
  std::size_t expected_begin = 0;
  for (const auto& range : plan) {
    EXPECT_EQ(range.begin, expected_begin);
    EXPECT_GT(range.end, range.begin);
    expected_begin = range.end;
  }
  EXPECT_EQ(expected_begin, 10000u);
}

TEST(PlanShards, SmallInputsStaySerial) {
  EXPECT_TRUE(plan_shards(0, {}).empty());
  const auto plan = plan_shards(100, {.min_shard_items = 1024, .max_shards = 64});
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].begin, 0u);
  EXPECT_EQ(plan[0].end, 100u);
}

TEST(PlanShards, IndependentOfAnyPool) {
  // The plan is a pure function of (n, options) — this is determinism
  // rule 1, so spell it out as a regression anchor.
  const auto a = plan_shards(54321, {});
  const auto b = plan_shards(54321, {});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

TEST(ShardRng, StatelessAndDistinctPerShard) {
  auto a = shard_rng(1, 2, 3);
  auto b = shard_rng(1, 2, 3);
  EXPECT_EQ(a(), b());
  EXPECT_EQ(a(), b());
  auto c = shard_rng(1, 2, 4);
  auto d = shard_rng(1, 3, 3);
  EXPECT_NE(shard_rng(1, 2, 3)(), c());
  EXPECT_NE(shard_rng(1, 2, 3)(), d());
}

TEST(ShardRng, StreamsNeverCollideOverManyDraws) {
  // Property: the streams of distinct (stage_label, shard) pairs share
  // no value anywhere in their first 10k draws. Sixteen streams x 10k
  // 64-bit draws would collide by birthday chance with probability
  // ~1e-9 — any overlap means correlated shard streams, the failure the
  // splitmix derivation exists to rule out.
  constexpr std::uint64_t kSeed = 20180901;
  constexpr std::size_t kDraws = 10000;
  const std::array<std::uint64_t, 4> stage_labels = {0xDA7A, 0x9D45, 0x3E0, 0x15B0};
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(stage_labels.size() * 4 * kDraws);
  for (const auto label : stage_labels) {
    for (std::uint64_t shard = 0; shard < 4; ++shard) {
      auto rng = shard_rng(kSeed, label, shard);
      for (std::size_t draw = 0; draw < kDraws; ++draw) {
        EXPECT_TRUE(seen.insert(rng()).second)
            << "stream (" << label << ", " << shard << ") collided at draw " << draw;
      }
    }
  }
}

TEST(ParallelFor, MatchesSerialForEveryPoolSize) {
  constexpr std::size_t kN = 5000;
  const auto run = [](ThreadPool* pool) {
    std::vector<std::uint64_t> out(kN);
    parallel_for(pool, kN, {.min_shard_items = 64}, [&](ShardRange range, std::size_t) {
      for (std::size_t i = range.begin; i < range.end; ++i) out[i] = i * i;
    });
    return out;
  };
  const auto serial = run(nullptr);
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(serial[i], i * i);
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(run(&pool), serial);
  }
}

TEST(ParallelFor, WritesDisjointSlots) {
  constexpr std::size_t kN = 4096;
  std::vector<std::uint32_t> out(kN, 0);
  ThreadPool pool(4);
  parallel_for(&pool, kN, {.min_shard_items = 64},
               [&](ShardRange range, std::size_t) {
                 for (std::size_t i = range.begin; i < range.end; ++i) {
                   out[i] = static_cast<std::uint32_t>(i + 1);
                 }
               });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(ParallelFor, PropagatesShardExceptions) {
  constexpr std::size_t kN = 10000;
  ThreadPool pool(4);
  const auto plan = plan_shards(kN, {.min_shard_items = 16});
  ASSERT_GT(plan.size(), 4u);
  std::vector<std::uint8_t> ran(plan.size(), 0);
  const auto boom = [&] {
    parallel_for(&pool, kN, {.min_shard_items = 16}, [&](ShardRange, std::size_t shard) {
      ran[shard] = 1;
      if (shard == 3) throw std::runtime_error("shard failure");
    });
  };
  EXPECT_THROW(boom(), std::runtime_error);
  // The throw does not cancel the batch: every other shard still ran.
  EXPECT_EQ(std::count(ran.begin(), ran.end(), 1), static_cast<std::ptrdiff_t>(plan.size()));
  // The pool serves a follow-up batch.
  std::vector<std::uint8_t> again(kN, 0);
  parallel_for(&pool, kN, {.min_shard_items = 16}, [&](ShardRange range, std::size_t) {
    for (std::size_t i = range.begin; i < range.end; ++i) again[i] = 1;
  });
  EXPECT_EQ(std::count(again.begin(), again.end(), 1), static_cast<std::ptrdiff_t>(kN));
}

TEST(OrderedStream, ConsumesInShardOrderWhileProducersRun) {
  constexpr std::size_t kN = 20000;
  const auto run = [](ThreadPool* pool) {
    std::vector<std::size_t> consumed_shards;
    std::vector<std::uint64_t> consumed_values;
    ordered_stream(
        pool, kN, {.min_shard_items = 256},
        [](ShardRange range, std::size_t shard) {
          auto rng = shard_rng(/*seed=*/42, /*stage_label=*/0x02DE2, shard);
          std::vector<std::uint64_t> part;
          part.reserve(range.size());
          for (std::size_t i = range.begin; i < range.end; ++i) part.push_back(rng());
          return part;
        },
        [&](std::size_t shard, std::vector<std::uint64_t>&& part) {
          consumed_shards.push_back(shard);
          consumed_values.insert(consumed_values.end(), part.begin(), part.end());
        });
    return std::pair(consumed_shards, consumed_values);
  };
  const auto [serial_shards, serial_values] = run(nullptr);
  ASSERT_EQ(serial_values.size(), kN);
  ASSERT_GT(serial_shards.size(), 1u);
  for (std::size_t i = 0; i < serial_shards.size(); ++i) {
    EXPECT_EQ(serial_shards[i], i);  // strictly ascending, no gaps
  }
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const auto [shards, values] = run(&pool);
    // A consumer with side effects (the join's spill writers) sees the
    // serial order bit for bit, whatever order parts arrived in.
    EXPECT_EQ(shards, serial_shards);
    EXPECT_EQ(values, serial_values);
  }
}

TEST(OrderedStream, ChannelStatsSinkSeesEveryPart) {
  constexpr std::size_t kN = 20000;
  const auto size_of = [](ShardRange range, std::size_t) {
    return static_cast<std::uint64_t>(range.size());
  };
  ThreadPool pool(4);
  ChannelStats stats;
  const auto plan = plan_shards(kN, {.min_shard_items = 256});
  ASSERT_GT(plan.size(), 1u);
  std::uint64_t total = 0;
  ordered_stream(&pool, kN, {.min_shard_items = 256, .channel_stats = &stats}, size_of,
                 [&](std::size_t, std::uint64_t&& part) { total += part; });
  EXPECT_EQ(total, kN);
  // One part per shard passes through the claim window; the sink sees
  // all of them, and no more parts than the window's four slots ever
  // wait in it.
  EXPECT_EQ(stats.pushed, plan.size());
  EXPECT_EQ(stats.popped, plan.size());
  EXPECT_GE(stats.high_water, 1u);
  EXPECT_LE(stats.high_water, 4u);

  // The serial path uses no window and leaves the sink untouched.
  ChannelStats serial_stats;
  ordered_stream(nullptr, kN, {.min_shard_items = 256, .channel_stats = &serial_stats},
                 size_of, [](std::size_t, std::uint64_t&&) {});
  EXPECT_EQ(serial_stats.pushed, 0u);
  EXPECT_EQ(serial_stats.popped, 0u);
}

TEST(OrderedStream, ThrowingConsumerDrainsAndRethrows) {
  std::atomic<std::size_t> produced{0};
  const auto size_of = [&](ShardRange range, std::size_t) {
    produced.fetch_add(1, std::memory_order_relaxed);
    return static_cast<std::uint64_t>(range.size());
  };
  ThreadPool pool(4);
  std::size_t consumed = 0;
  const auto boom = [&] {
    ordered_stream(&pool, 10000, {.min_shard_items = 16}, size_of,
                   [&](std::size_t shard, std::uint64_t&&) {
                     if (shard == 2) throw std::runtime_error("consumer failure");
                     ++consumed;
                   });
  };
  EXPECT_THROW(boom(), std::runtime_error);
  EXPECT_EQ(consumed, 2u);  // shards 0 and 1 landed before the throw
  // The throw stopped further claims: besides shards 0-2, at most the
  // window's four slots were claimed, and every claimed shard returned
  // before the rethrow.
  EXPECT_LE(produced.load(), 3u + 4u);
  // The pool is healthy afterwards (no producer left waiting on the
  // window) — a follow-up batch completes.
  std::uint64_t total = 0;
  ordered_stream(&pool, 10000, {.min_shard_items = 16},
                 [](ShardRange range, std::size_t) {
                   return static_cast<std::uint64_t>(range.size());
                 },
                 [&](std::size_t, std::uint64_t&& part) { total += part; });
  EXPECT_EQ(total, 10000u);
}

/// Live payloads of the parts HoldsAtMostWindowParts streams, and the
/// most that were ever alive at once.
std::atomic<int> g_live_parts{0};
std::atomic<int> g_peak_parts{0};

struct CountedPayload {
  CountedPayload() {
    const int live = g_live_parts.fetch_add(1) + 1;
    int peak = g_peak_parts.load();
    while (live > peak && !g_peak_parts.compare_exchange_weak(peak, live)) {
    }
  }
  ~CountedPayload() { g_live_parts.fetch_sub(1); }
  CountedPayload(const CountedPayload&) = delete;
  CountedPayload& operator=(const CountedPayload&) = delete;
};

TEST(OrderedStream, HoldsAtMostWindowParts) {
  // Shard 0 is slow: it waits until 16 parts are alive (or 200 ms pass).
  // Later shards finish first, but none may be claimed until its slot in
  // the window frees, so the parts alive never exceed the window's
  // workers slots plus the one the consumer holds.
  constexpr unsigned kWorkers = 4;
  constexpr std::size_t kShards = 64;
  g_live_parts = 0;
  g_peak_parts = 0;
  ThreadPool pool(kWorkers);
  std::vector<std::size_t> order;
  ordered_stream(
      &pool, kShards, {.min_shard_items = 1, .max_shards = kShards},
      [](ShardRange, std::size_t shard) {
        if (shard == 0) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
          while (g_live_parts.load() < 16 && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        return std::make_unique<CountedPayload>();
      },
      [&](std::size_t shard, std::unique_ptr<CountedPayload>&& part) {
        EXPECT_NE(part, nullptr);
        order.push_back(shard);
      });
  EXPECT_LE(g_peak_parts.load(), static_cast<int>(kWorkers) + 1);
  EXPECT_EQ(g_live_parts.load(), 0);
  ASSERT_EQ(order.size(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) EXPECT_EQ(order[i], i);
}

TEST(OrderedStream, PropagatesShardExceptions) {
  ThreadPool pool(4);
  const auto boom = [&] {
    ordered_stream(
        &pool, 10000, {.min_shard_items = 16},
        [](ShardRange range, std::size_t shard) {
          if (shard == 3) throw std::runtime_error("shard failure");
          return static_cast<int>(range.size());
        },
        [](std::size_t, int&&) {});
  };
  EXPECT_THROW(boom(), std::runtime_error);
}

TEST(OrderedStream, RejectsCallsFromPoolWorkers) {
  // The caller blocks in its consumer loop, so a parallel stage may not
  // start from inside a pool task. The nested call's precondition fails
  // on the worker; the outer stream rethrows it on the caller.
  const util::ContractPolicy saved = util::contract_policy();
  util::set_contract_policy(util::ContractPolicy::Throw);
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(&pool, 4, {.min_shard_items = 1},
                            [](ShardRange, std::size_t) {
                              parallel_for(nullptr, 1, {}, [](ShardRange, std::size_t) {});
                            }),
               util::ContractViolation);
  util::set_contract_policy(saved);
}

// --- End-to-end determinism sweep ------------------------------------

core::StudyConfig sweep_config(unsigned threads) {
  core::StudyConfig config;
  config.world.seed = 20180901;
  // Small but end-to-end: each TEST_P process builds two full studies
  // (reference + candidate), and the sweep also runs under TSan's
  // ~15x slowdown in CI, so the scale stays modest. The NetFlow volume
  // in particular drops to ~20k records per ISP run — still a dozen
  // generation/collection shards, a tiny fraction of the default cost.
  config.world.scale = 0.01;
  config.netflow.scale = 2e-5;
  config.threads = threads;
  return config;
}

/// The tentpole guarantee: a Study's observable results are identical
/// for every thread count. threads=1 (pure serial, no pool) is the
/// reference; 2 and 8 must match it bit for bit.
class StudyDeterminism : public ::testing::TestWithParam<unsigned> {};

TEST_P(StudyDeterminism, MatchesSerialReference) {
  // Both studies run fully instrumented: attaching a registry — and the
  // flight recorder, whose worker-side emits ride every sharded stage —
  // must not perturb any result (instrumentation is observational only).
  obs::Registry ref_registry;
  obs::Registry got_registry;
  obs::TraceBuffer ref_trace;
  obs::TraceBuffer got_trace;
  auto ref_config = sweep_config(1);
  ref_config.registry = &ref_registry;
  ref_config.trace = &ref_trace;
  auto got_config = sweep_config(GetParam());
  got_config.registry = &got_registry;
  got_config.trace = &got_trace;
  core::Study reference(ref_config);
  core::Study candidate(got_config);

  // Classification outcomes, request by request.
  const auto& ref_outcomes = reference.outcomes();
  const auto& got_outcomes = candidate.outcomes();
  ASSERT_EQ(got_outcomes.size(), ref_outcomes.size());
  for (std::size_t i = 0; i < ref_outcomes.size(); ++i) {
    ASSERT_EQ(got_outcomes[i].method, ref_outcomes[i].method) << "request " << i;
    ASSERT_EQ(got_outcomes[i].list, ref_outcomes[i].list) << "request " << i;
  }

  // Tracker IP completion (sorted vectors -> plain equality).
  EXPECT_EQ(candidate.completed_tracker_ips(), reference.completed_tracker_ips());

  // Active geolocation verdicts over the completed tracker set (capped:
  // each verdict runs a full probe panel twice, and the whole set adds
  // nothing over a prefix). The candidate prefetches in parallel;
  // verdicts must not depend on it.
  const auto& ips = reference.completed_tracker_ips();
  const std::size_t sample = std::min<std::size_t>(ips.size(), 256);
  for (std::size_t i = 0; i < sample; ++i) {
    ASSERT_EQ(candidate.geo().locate(ips[i], geoloc::Tool::ActiveIpmap),
              reference.geo().locate(ips[i], geoloc::Tool::ActiveIpmap));
  }

  // One full ISP snapshot: sharded generation + sharded collection.
  const auto isp = netflow::default_isps()[0];
  const auto snapshot = netflow::default_snapshots()[0];
  const auto ref_run = reference.run_isp_snapshot(isp, snapshot);
  const auto got_run = candidate.run_isp_snapshot(isp, snapshot);
  EXPECT_EQ(got_run.exported_records, ref_run.exported_records);
  EXPECT_EQ(got_run.collection.records_seen, ref_run.collection.records_seen);
  EXPECT_EQ(got_run.collection.internal_records, ref_run.collection.internal_records);
  EXPECT_EQ(got_run.collection.matched_records, ref_run.collection.matched_records);
  EXPECT_EQ(got_run.collection.https_records, ref_run.collection.https_records);
  EXPECT_EQ(got_run.collection.udp_records, ref_run.collection.udp_records);
  EXPECT_EQ(got_run.collection.per_ip, ref_run.collection.per_ip);

  // Identical work on both sides -> identical logical counters, even
  // though the candidate computed them across threads.
  for (const char* name :
       {"cbwt_classify_requests_total", "cbwt_classify_rule_hits_total",
        "cbwt_netflow_records_generated_total", "cbwt_netflow_matched_total"}) {
    EXPECT_EQ(got_registry.counter_value(name), ref_registry.counter_value(name))
        << name;
  }
  if (GetParam() > 1) {
    // The sharded stages streamed their parts through claim windows;
    // the registry must have seen that throughput.
    EXPECT_GT(got_registry.counter_value("cbwt_runtime_channel_pushed_total"), 0u);
    EXPECT_EQ(got_registry.counter_value("cbwt_runtime_channel_pushed_total"),
              got_registry.counter_value("cbwt_runtime_channel_popped_total"));
  } else {
    // Serial studies never open a window.
    EXPECT_EQ(got_registry.counter_value("cbwt_runtime_channel_pushed_total"), 0u);
  }

  // The armed recorder saw the run: spans emitted begin/end events, and
  // a threaded candidate traced from at least two distinct threads
  // (main + pool workers).
  std::size_t got_events = 0;
  for (const auto& thread : got_trace.snapshot()) got_events += thread.events.size();
  EXPECT_GT(got_events, 0u);
  if (GetParam() > 1) {
    EXPECT_GE(got_trace.thread_count(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, StudyDeterminism, ::testing::Values(1u, 2u, 8u),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cbwt::runtime
