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
//   3. Shard outputs are delivered in shard-index order, re-sequenced
//      through a reorder buffer when they arrive out of order
//      (ordered_stream, the one execution engine; parallel_for is
//      ordered_stream with empty parts).
//
// With those rules, `threads == 1` (run the shards inline, in order, on
// the calling thread) is the *definition* of the result, and the pool
// merely computes the same function faster.
#pragma once

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "runtime/channel.h"
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

struct ShardOptions {
  /// Floor on items per shard; tiny inputs collapse to one shard rather
  /// than paying scheduling overhead per handful of items.
  std::size_t min_shard_items = 1024;
  /// Cap on the number of shards (bounds reorder-buffer memory and
  /// keeps the per-shard RNG label space small).
  std::size_t max_shards = 64;
  /// When non-null, ordered_stream folds its streaming channel's
  /// counters in here after the stream drains (observability hook; the
  /// serial path uses no channel and leaves the sink untouched). Not
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

/// Sharded producer / ordered-consumer pipeline: the one execution
/// engine every sharded stage runs on.
///
/// `shard_fn(range, shard_index)` produces one Part per shard on pool
/// workers; `consume(shard_index, part)` runs on the calling thread
/// strictly in shard-index order (rule 3) *while later shards are still
/// producing* — a consumer that writes to disk therefore overlaps its
/// I/O with the producers' compute. Parallel shards stream their parts
/// through a bounded Channel sized to the worker count — the
/// backpressure keeps at most O(threads) parts in flight — and the
/// caller re-sequences early arrivals in a reorder buffer, so a consumer
/// with side effects (file appends, stateful folds) observes the serial
/// order bit for bit.
///
/// Serial (pool == nullptr, one worker or one shard): every shard runs
/// inline, in order, and the first exception propagates at once.
/// Parallel: min(pool size, shards) workers claim shards from a shared
/// cursor. A throwing shard_fn hands its consumer a default Part, the
/// remaining shards still run, and the first exception is rethrown once
/// the stream drains; a throwing consumer drains the stream, then
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

  using Keyed = std::pair<std::size_t, Part>;
  // Producer tasks can straggle past the caller's return by a loop-top
  // re-check and the tail of their final push, so the state they touch
  // there is shared-owned rather than on the caller's stack.
  struct Stream {
    explicit Stream(std::size_t channel_capacity, std::size_t shard_count)
        : parts(channel_capacity), count(shard_count) {}
    Channel<Keyed> parts;
    std::size_t count;  ///< immutable once the stream is shared
    util::Mutex mutex;
    std::size_t next CBWT_GUARDED_BY(mutex) = 0;  ///< next unclaimed shard
    std::exception_ptr error CBWT_GUARDED_BY(mutex);
  };
  auto stream =
      std::make_shared<Stream>(std::max<std::size_t>(2, pool->size()), plan.size());

  const auto produce = [stream, &plan, &shard_fn] {
    for (;;) {
      std::size_t shard = 0;
      {
        util::MutexLock lock(stream->mutex);
        if (stream->next >= stream->count) return;
        shard = stream->next++;
      }
      Part part{};
      try {
        part = shard_fn(plan[shard], shard);
      } catch (...) {
        util::MutexLock lock(stream->mutex);
        if (!stream->error) stream->error = std::current_exception();
      }
      // Push even after an error so the consumer's count stays exact;
      // the error is rethrown once the stream drains.
      stream->parts.push(Keyed(shard, std::move(part)));
    }
  };

  const std::size_t workers = std::min<std::size_t>(pool->size(), plan.size());
  for (std::size_t i = 0; i < workers; ++i) pool->submit(produce);

  // Order-preserving delivery: consume parts strictly by shard index,
  // parking early arrivals until their turn comes.
  std::map<std::size_t, Part> parked;
  std::size_t next_to_consume = 0;
  std::size_t received = 0;
  try {
    while (received < plan.size()) {
      auto [shard, part] = stream->parts.pop();
      ++received;
      if (shard != next_to_consume) {
        parked.emplace(shard, std::move(part));
        continue;
      }
      consume(next_to_consume++, std::move(part));
      for (auto it = parked.begin(); it != parked.end() && it->first == next_to_consume;
           it = parked.erase(it)) {
        consume(next_to_consume++, std::move(it->second));
      }
    }
  } catch (...) {
    // A throwing consumer must still drain the stream: a producer
    // blocked on the full channel would otherwise never finish its pool
    // task.
    for (; received < plan.size(); ++received) (void)stream->parts.pop();
    throw;
  }
  CBWT_ASSERT(parked.empty() && next_to_consume == plan.size());

  // Every part has been popped, so no producer touches the channel
  // again (stragglers only re-check the claim cursor and return) — the
  // stats are final here.
  if (options.channel_stats != nullptr) {
    options.channel_stats->accumulate(stream->parts.stats());
  }

  util::MutexLock lock(stream->mutex);
  if (stream->error) std::rethrow_exception(stream->error);
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
