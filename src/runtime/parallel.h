// Deterministic data-parallel layer over the ThreadPool.
//
// The invariant every helper here upholds: **results are bit-identical
// to the serial execution at any worker count.** Three rules make that
// hold:
//
//   1. Shard boundaries depend only on the item count and ShardOptions —
//      never on how many threads happen to exist (plan_shards).
//   2. A randomized shard function derives its own generator from
//      (seed, stage label, shard index) with shard_rng — never draws
//      from a generator shared across shards.
//   3. Shard outputs are delivered in shard-index order: producers claim
//      shards in order through a fixed window of part slots, and the
//      consumer takes the slots in order (ordered_stream, the one
//      execution engine; parallel_for is ordered_stream with empty
//      parts).
//
// With those rules, `threads == 1` (run the shards inline, in order, on
// the calling thread) is the *definition* of the result, and the pool
// merely computes the same function faster.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "runtime/thread_pool.h"
#include "util/contract.h"
#include "util/prng.h"
#include "util/thread_annotations.h"

namespace cbwt::runtime {

/// Half-open index range [begin, end) owned by one shard.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

/// Backpressure / throughput counters of ordered_stream's claim window
/// (monotonic), so observers (ShardOptions::channel_stats,
/// obs::record_channel_stats) can read them without knowing the Part
/// type. Observational only: they never feed back into what a stream
/// delivers, so determinism holds.
struct ChannelStats {
  std::uint64_t pushed = 0;              ///< parts deposited by producers
  std::uint64_t popped = 0;              ///< parts taken by the consumer
  std::size_t high_water = 0;            ///< max finished parts waiting
  std::uint64_t producer_stalls = 0;     ///< claims that waited for the window
  std::uint64_t consumer_stalls = 0;     ///< takes that waited for their part
  std::uint64_t producer_stall_ns = 0;   ///< total time producers waited
  std::uint64_t consumer_stall_ns = 0;   ///< total time the consumer waited

  /// Folds another stream's counters in (sums; high_water takes max),
  /// for accumulating across a pipeline's many short-lived streams.
  void accumulate(const ChannelStats& other) noexcept {
    pushed += other.pushed;
    popped += other.popped;
    high_water = std::max(high_water, other.high_water);
    producer_stalls += other.producer_stalls;
    consumer_stalls += other.consumer_stalls;
    producer_stall_ns += other.producer_stall_ns;
    consumer_stall_ns += other.consumer_stall_ns;
  }
};

struct ShardOptions {
  /// Floor on items per shard; tiny inputs collapse to one shard rather
  /// than paying scheduling overhead per handful of items.
  std::size_t min_shard_items = 1024;
  /// Cap on the number of shards (keeps the per-shard RNG label space
  /// small; with the input size it sets how large each part is).
  std::size_t max_shards = 64;
  /// When non-null, ordered_stream folds its claim window's counters in
  /// here after the stream drains (observability hook; the serial path
  /// uses no window and leaves the sink untouched). Not
  /// consulted by plan_shards, so the shard plan — and determinism —
  /// is unaffected.
  ChannelStats* channel_stats = nullptr;
};

/// Splits [0, n) into contiguous shards. Pure function of (n, options):
/// the plan — and therefore every derived RNG stream — is identical no
/// matter how many workers later execute it.
[[nodiscard]] std::vector<ShardRange> plan_shards(std::size_t n,
                                                  const ShardOptions& options = {});

/// The per-shard generator of rule 2: stateless in (seed, label, shard),
/// so shard streams are independent and reproducible in isolation.
[[nodiscard]] inline util::Rng shard_rng(std::uint64_t seed, std::uint64_t stage_label,
                                         std::uint64_t shard) noexcept {
  return util::Rng(util::mix64(util::mix64(seed ^ util::mix64(stage_label)) ^
                               util::mix64(shard + 0x5A17ED5EEDULL)));
}

namespace detail {

/// Stall timing for ChannelStats only; it never feeds back into what a
/// stream delivers.
[[nodiscard]] inline auto stall_clock() noexcept {
  return std::chrono::steady_clock::now();  // cbwt-lint: allow(steady-clock)
}

[[nodiscard]] inline std::uint64_t ns_since(
    std::chrono::time_point<std::chrono::steady_clock> begin) noexcept {  // cbwt-lint: allow(steady-clock)
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stall_clock() - begin).count());
}

}  // namespace detail

/// Sharded producer / ordered-consumer pipeline: the one execution
/// engine every sharded stage runs on.
///
/// `shard_fn(range, shard_index)` produces one Part per shard on pool
/// workers; `consume(shard_index, part)` runs on the calling thread
/// strictly in shard-index order (rule 3) *while later shards are still
/// producing* — a consumer that writes to disk therefore overlaps its
/// I/O with the producers' compute, and a consumer with side effects
/// (file appends, stateful folds) observes the serial order bit for bit.
///
/// Serial (pool == nullptr, one worker or one shard): every shard runs
/// inline, in order, and the first exception propagates at once.
/// Parallel: W = min(pool size, shards) workers claim shards in order
/// through one claim window of W part slots. Shard s may be claimed only
/// once shard s - W has been taken by the consumer, and its part lands
/// in slot s % W, so at most W parts are claimed but not yet consumed
/// (plus the one the consumer holds) whatever order they finish in, and
/// nothing is re-sequenced. A throwing shard_fn hands its consumer a
/// default Part, the remaining shards still run, and the first exception
/// is rethrown once every part is consumed; a throwing consumer stops
/// further claims, waits until every claimed shard_fn has returned, then
/// rethrows.
///
/// Precondition: the caller is not a pool worker. It blocks in its
/// consumer loop while the workers produce, so a pool task running a
/// parallel stage could wait on shards only its own worker could run.
template <typename ShardFn, typename Consume>
void ordered_stream(ThreadPool* pool, std::size_t n, const ShardOptions& options,
                    ShardFn&& shard_fn, Consume&& consume) {
  CBWT_EXPECTS(ThreadPool::current_worker_index() < 0);
  using Part = std::invoke_result_t<ShardFn&, ShardRange, std::size_t>;
  const auto plan = plan_shards(n, options);
  if (plan.empty()) return;

  if (pool == nullptr || pool->size() <= 1 || plan.size() == 1) {
    for (std::size_t shard = 0; shard < plan.size(); ++shard) {
      consume(shard, shard_fn(plan[shard], shard));
    }
    return;
  }

  // Producer tasks can straggle past the caller's return (a task the
  // pool starts late, or a woken producer, re-checks the claim cursor
  // and returns), so the state they touch is shared-owned rather than on
  // the caller's stack.
  struct Window {
    Window(std::size_t slot_count, std::size_t shard_count)
        : width(slot_count), count(shard_count), slots(slot_count) {}
    /// Whether a producer must wait: shards remain, but the next one is
    /// `width` or more shards ahead of the consumer.
    [[nodiscard]] bool full() const CBWT_REQUIRES(mutex) {
      return !stopped && claimed < count && claimed >= consumed + width;
    }
    const std::size_t width;
    const std::size_t count;
    util::Mutex mutex;
    std::condition_variable advanced;  ///< producers: a slot freed, or the stream stopped
    std::condition_variable landed;    ///< consumer: a part landed in its slot
    /// Slot s % W holds shard s's part from deposit until the consumer
    /// takes it.
    std::vector<std::optional<Part>> slots CBWT_GUARDED_BY(mutex);
    std::size_t claimed CBWT_GUARDED_BY(mutex) = 0;   ///< next shard to claim
    std::size_t consumed CBWT_GUARDED_BY(mutex) = 0;  ///< next shard to consume
    std::size_t running CBWT_GUARDED_BY(mutex) = 0;   ///< claimed, shard_fn not returned
    bool stopped CBWT_GUARDED_BY(mutex) = false;      ///< the consumer threw
    std::exception_ptr error CBWT_GUARDED_BY(mutex);
    ChannelStats stats CBWT_GUARDED_BY(mutex);
  };
  const std::size_t width = std::min<std::size_t>(pool->size(), plan.size());
  auto window = std::make_shared<Window>(width, plan.size());

  const auto produce = [window, &plan, &shard_fn] {
    for (;;) {
      std::size_t shard = 0;
      {
        util::MutexLock lock(window->mutex);
        if (window->full()) {
          ++window->stats.producer_stalls;
          const auto begin = detail::stall_clock();
          while (window->full()) window->advanced.wait(lock.native());
          window->stats.producer_stall_ns += detail::ns_since(begin);
        }
        if (window->stopped || window->claimed >= window->count) return;
        shard = window->claimed++;
        ++window->running;
      }
      Part part{};
      try {
        part = shard_fn(plan[shard], shard);
      } catch (...) {
        util::MutexLock lock(window->mutex);
        if (!window->error) window->error = std::current_exception();
      }
      {
        util::MutexLock lock(window->mutex);
        window->slots[shard % window->width].emplace(std::move(part));
        --window->running;
        ++window->stats.pushed;
        window->stats.high_water = std::max<std::size_t>(
            window->stats.high_water, window->stats.pushed - window->stats.popped);
      }
      window->landed.notify_one();
    }
  };
  for (std::size_t i = 0; i < width; ++i) pool->submit(produce);

  try {
    for (std::size_t shard = 0; shard < plan.size(); ++shard) {
      Part part{};
      {
        util::MutexLock lock(window->mutex);
        auto& slot = window->slots[shard % window->width];
        if (!slot) {
          ++window->stats.consumer_stalls;
          const auto begin = detail::stall_clock();
          while (!slot) window->landed.wait(lock.native());
          window->stats.consumer_stall_ns += detail::ns_since(begin);
        }
        part = std::move(*slot);
        slot.reset();
        ++window->consumed;
        ++window->stats.popped;
      }
      window->advanced.notify_all();
      consume(shard, std::move(part));
    }
  } catch (...) {
    util::MutexLock lock(window->mutex);
    window->stopped = true;
    window->advanced.notify_all();
    while (window->running > 0) window->landed.wait(lock.native());
    throw;
  }

  // Every part has been consumed, so every claimed shard_fn has returned
  // and no producer touches the stats again — they are final here.
  util::MutexLock lock(window->mutex);
  if (options.channel_stats != nullptr) options.channel_stats->accumulate(window->stats);
  if (window->error) std::rethrow_exception(window->error);
}

/// Applies `body(range, shard_index)` to every shard of [0, n): an
/// ordered_stream whose parts are empty. Shards must write disjoint
/// state (typically out[i] for i in range).
template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t n, const ShardOptions& options,
                  Body&& body) {
  ordered_stream(
      pool, n, options,
      [&body](ShardRange range, std::size_t shard) {
        body(range, shard);
        return std::monostate{};
      },
      [](std::size_t /*shard*/, std::monostate&& /*part*/) {});
}

}  // namespace cbwt::runtime
