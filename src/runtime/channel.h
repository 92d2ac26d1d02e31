// Bounded MPMC channel with backpressure counters.
//
// The channel is the runtime's streaming primitive: producers block when
// the buffer is full and consumers block when it is empty. It has no
// end-of-stream signal: ordered_stream, its one user, knows how many
// parts its producers push and pops exactly that many. Queue-depth
// high-water and stall counters are recorded for observability; they
// never feed back into results, so pipelines built on the channel stay
// deterministic.
//
// Thread-safety: every mutable member is guarded by mutex_ and the
// annotations below let clang's -Wthread-safety prove it; notify calls
// happen after the lock scope closes so woken threads never bounce.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <utility>

#include "util/contract.h"
#include "util/thread_annotations.h"

namespace cbwt::runtime {

/// Backpressure / throughput counters of one channel (monotonic).
/// Hoisted out of Channel<T> so observers (ShardOptions::channel_stats,
/// obs::record_channel_stats) can handle stats without knowing T.
struct ChannelStats {
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::size_t high_water = 0;            ///< max queue depth observed
  std::uint64_t producer_stalls = 0;     ///< pushes that had to block
  std::uint64_t consumer_stalls = 0;     ///< pops that had to block
  std::uint64_t producer_stall_ns = 0;   ///< total time producers blocked
  std::uint64_t consumer_stall_ns = 0;   ///< total time consumers blocked

  /// Folds another channel's counters in (sums; high_water takes max),
  /// for accumulating across a pipeline's many short-lived channels.
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

template <typename T>
class Channel {
 public:
  /// Capacity bounds the buffer; zero-capacity (rendezvous) channels are
  /// not supported, so a producer can always make progress once a
  /// consumer drains.
  explicit Channel(std::size_t capacity) : capacity_(capacity) {
    CBWT_EXPECTS(capacity >= 1);
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocks while full.
  void push(T value) CBWT_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      if (buffer_.size() >= capacity_) {
        ++stats_.producer_stalls;
        const auto begin = stall_clock();
        while (buffer_.size() >= capacity_) not_full_.wait(lock.native());
        stats_.producer_stall_ns += ns_since(begin);
      }
      buffer_.push_back(std::move(value));
      ++stats_.pushed;
      stats_.high_water = std::max(stats_.high_water, buffer_.size());
    }
    not_empty_.notify_one();
  }

  /// Blocks while empty. T must be default-constructible (the value is
  /// moved out under the lock, returned after it is released).
  T pop() CBWT_EXCLUDES(mutex_) {
    T value;
    {
      util::MutexLock lock(mutex_);
      if (buffer_.empty()) {
        ++stats_.consumer_stalls;
        const auto begin = stall_clock();
        while (buffer_.empty()) not_empty_.wait(lock.native());
        stats_.consumer_stall_ns += ns_since(begin);
      }
      value = std::move(buffer_.front());
      buffer_.pop_front();
      ++stats_.popped;
    }
    not_full_.notify_one();
    return value;
  }

  /// Backpressure / throughput counters (monotonic).
  using Stats = ChannelStats;
  [[nodiscard]] Stats stats() const CBWT_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return stats_;
  }

 private:
  /// Stall timing is observational only (ChannelStats); it never feeds
  /// back into what the channel delivers, so determinism holds.
  [[nodiscard]] static auto stall_clock() noexcept {
    return std::chrono::steady_clock::now();  // cbwt-lint: allow(steady-clock)
  }

  [[nodiscard]] static std::uint64_t ns_since(
      std::chrono::time_point<std::chrono::steady_clock> begin) noexcept {  // cbwt-lint: allow(steady-clock)
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stall_clock() - begin)
            .count());
  }

  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> buffer_ CBWT_GUARDED_BY(mutex_);
  Stats stats_ CBWT_GUARDED_BY(mutex_);
};

}  // namespace cbwt::runtime
