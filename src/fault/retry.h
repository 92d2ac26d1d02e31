// Resilience policies over the fault layer: bounded retries with
// deterministic exponential backoff (seeded jitter), per-call virtual
// deadlines, and a per-endpoint circuit breaker.
//
// Time here is *virtual*: an attempt that "times out" charges its budget
// to the call's latency account instead of sleeping, so chaos sweeps run
// at full speed and a fate is a pure function of (plan, site, key,
// policy). That purity is what `fate_of` exposes — concurrent callers
// (GeoService measurements) can compute fates with no shared state,
// while sequential stages wrap fate_of in a `Retrier` to add breaker
// state and metrics.
//
// Determinism discipline for breakers: a CircuitBreaker is driven by the
// order of calls it sees, so a Retrier must only ever be owned by a
// deterministic unit of work — a serial stage, or one shard of a stable
// shard plan (serial execution runs the same shards inline in shard
// order, so per-shard breaker trajectories are identical at any thread
// count). Never share a Retrier across shards.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace cbwt::fault {

struct RetryPolicy {
  std::uint32_t max_attempts = 3;
  /// Virtual cost of a successful (or erroring) attempt.
  double base_latency_ms = 1.0;
  /// Virtual cost of a timed-out attempt (the attempt budget).
  double attempt_timeout_ms = 250.0;
  /// Extra virtual latency of a SlowResponse attempt.
  double slow_penalty_ms = 100.0;
  /// Exponential backoff between attempts: base * multiplier^n, capped.
  double base_backoff_ms = 10.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 2000.0;
  /// Backoff jitter fraction: each wait is scaled by a seeded factor in
  /// [1 - jitter, 1 + jitter], derived statelessly from the call key.
  double jitter = 0.5;
  /// Total virtual budget of the call across attempts and backoffs;
  /// 0 = unbounded. Exceeding it fails the call as a Timeout even if
  /// attempts remain.
  double deadline_ms = 0.0;
};

/// The complete, pre-computed trajectory of one logical call.
struct CallFate {
  FaultKind failure = FaultKind::None;  ///< None = the call succeeded
  bool stale = false;                   ///< success carried stale data
  bool breaker_rejected = false;        ///< refused without an attempt
  std::uint32_t attempts = 1;           ///< attempts consumed (>= 1 unless rejected)
  std::uint32_t injected = 0;           ///< faulted attempts along the way
  double latency_ms = 0.0;              ///< virtual latency incl. backoff

  [[nodiscard]] bool ok() const noexcept { return failure == FaultKind::None; }
};

/// Computes the fate of call `key` at `site`: walks the per-attempt
/// fault decisions, charging attempt costs and jittered backoff until an
/// attempt succeeds, attempts run out, or the deadline is blown. Pure
/// function of its arguments — thread-safe, allocation-free, and
/// identical no matter which thread or order evaluates it. A disabled
/// site (all rates zero) short-circuits to a 1-attempt success.
[[nodiscard]] CallFate fate_of(const FaultPlan& plan, const Site& site,
                               std::uint64_t key, const RetryPolicy& policy) noexcept;

struct BreakerPolicy {
  /// Consecutive failed calls (exhausted retries) that open the breaker.
  std::uint32_t failure_threshold = 5;
  /// Calls rejected while open before one half-open probe is let through.
  std::uint32_t open_calls = 16;
};

/// Classic three-state breaker, driven by call order (see the file
/// comment for where that order is allowed to come from). There is no
/// wall clock in the model, so the open->half-open transition counts
/// rejected calls instead of elapsed time.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { Closed, Open, HalfOpen };

  explicit CircuitBreaker(BreakerPolicy policy = {}) : policy_(policy) {}

  /// Consumes one call slot. False = rejected (breaker open); while
  /// open, the `open_calls`-th rejection arms a half-open probe, so the
  /// next call is allowed through as the trial request.
  [[nodiscard]] bool allow() noexcept;
  /// Reports the allowed call's result, driving the state machine.
  void on_success() noexcept;
  void on_failure() noexcept;

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] std::uint32_t consecutive_failures() const noexcept {
    return consecutive_failures_;
  }

 private:
  BreakerPolicy policy_;
  State state_ = State::Closed;
  std::uint32_t consecutive_failures_ = 0;
  std::uint32_t rejected_while_open_ = 0;
};

[[nodiscard]] std::string_view to_string(CircuitBreaker::State state) noexcept;

/// Aggregate counters of one Retrier (one site within one stage/shard).
struct RetryStats {
  std::uint64_t calls = 0;
  std::uint64_t injected = 0;   ///< faulted attempts
  std::uint64_t retried = 0;    ///< attempts beyond the first
  std::uint64_t exhausted = 0;  ///< calls that failed after all retries
  std::uint64_t breaker_rejected = 0;
  std::uint64_t degraded = 0;   ///< calls whose caller served degraded output
  double latency_ms = 0.0;      ///< total virtual latency
};

/// Per-site metric handles, resolved once (registry mutex) and updated
/// via relaxed atomics. All-null when no registry is attached or the
/// plan is disabled — which is what keeps a zero-rate run's registry
/// byte-identical to a no-fault-layer run: the cbwt_fault_* names are
/// never even created.
struct SiteMetrics {
  obs::Counter* injected = nullptr;
  obs::Counter* retried = nullptr;
  obs::Counter* exhausted = nullptr;
  obs::Counter* degraded = nullptr;
  obs::Counter* breaker_rejected = nullptr;
  obs::Histogram* retry_latency_seconds = nullptr;

  /// Resolves cbwt_fault_<site>_{injected,retried,exhausted,degraded,
  /// breaker_rejected}_total and cbwt_fault_<site>_retry_latency_seconds
  /// (virtual latency, observed in seconds per the obs `_seconds`
  /// duration convention; RetryStats keeps its millisecond field).
  /// Null registry -> all-null handles (every update is a null check).
  [[nodiscard]] static SiteMetrics resolve(obs::Registry* registry,
                                           std::string_view site);

  /// Publishes one fate (thread-safe; counters are atomic).
  void count(const CallFate& fate) const noexcept;
  void count_degraded(std::uint64_t n = 1) const noexcept;
};

/// Sequential resilience wrapper for one site: fate_of + per-endpoint
/// circuit breakers + stats + metrics. NOT thread-safe — own one per
/// serial stage or per shard (see file comment).
class Retrier {
 public:
  /// Disabled: every call() is a 1-attempt success with no bookkeeping.
  Retrier() = default;
  /// `plan` may be null (disabled). Metrics resolve only when the plan
  /// is live, preserving the zero-cost default.
  Retrier(const FaultPlan* plan, std::string_view site_label, RetryPolicy retry = {},
          BreakerPolicy breaker = {}, obs::Registry* registry = nullptr);

  [[nodiscard]] bool enabled() const noexcept {
    return plan_ != nullptr && site_.rates.any();
  }

  /// Decides call `key` against `endpoint`'s breaker: rejected calls
  /// fail fast (breaker_rejected fate), allowed calls get their fate_of
  /// trajectory and drive the breaker with the result.
  [[nodiscard]] CallFate call(std::uint64_t endpoint, std::uint64_t key);

  /// Caller accounting: the call's consumer served degraded output
  /// (dropped a flow, reported unlocated, fell back to stale data).
  void count_degraded(std::uint64_t n = 1) noexcept;

  [[nodiscard]] CircuitBreaker& breaker(std::uint64_t endpoint);
  [[nodiscard]] const RetryStats& stats() const noexcept { return stats_; }

 private:
  const FaultPlan* plan_ = nullptr;
  Site site_;
  RetryPolicy retry_;
  BreakerPolicy breaker_policy_;
  SiteMetrics metrics_;
  std::unordered_map<std::uint64_t, CircuitBreaker> breakers_;
  RetryStats stats_;
};

}  // namespace cbwt::fault
