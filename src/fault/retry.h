// Resilience policy over the fault layer: bounded retries with
// deterministic exponential backoff (seeded jitter).
//
// Time here is *virtual*: an attempt that "times out" charges its budget
// to the call's latency account instead of sleeping, so chaos sweeps run
// at full speed and a fate is a pure function of (plan, site, key). Nothing in this layer holds state between calls, so any
// number of threads can compute fates against one resolved StageSite
// and get the same answers in any order.
#pragma once

#include <cstdint>
#include <string_view>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace cbwt::fault {

/// The complete, pre-computed trajectory of one logical call.
struct CallFate {
  FaultKind failure = FaultKind::None;  ///< None = the call succeeded
  bool stale = false;                   ///< success carried stale data
  std::uint32_t attempts = 1;           ///< attempts consumed (>= 1)
  std::uint32_t injected = 0;           ///< faulted attempts along the way
  double latency_ms = 0.0;              ///< virtual latency incl. backoff

  [[nodiscard]] bool ok() const noexcept { return failure == FaultKind::None; }
};

/// Computes the fate of call `key` at `site` under the one retry policy
/// (three attempts, 1 ms per answered attempt, 250 ms per timed-out
/// one, +100 ms for a slow answer, backoff 10 ms doubling per retry with
/// ±50% seeded jitter): walks the per-attempt fault decisions, charging
/// attempt costs and backoff until an attempt succeeds or attempts run
/// out. Pure function of its arguments — thread-safe, allocation-free,
/// and identical no matter which thread or order evaluates it. A
/// disabled site (all rates zero) short-circuits to a 1-attempt success.
[[nodiscard]] CallFate fate_of(const FaultPlan& plan, const Site& site,
                               std::uint64_t key) noexcept;

/// Per-site metric handles — cbwt_fault_<site>_{injected,retried,
/// exhausted,degraded}_total and cbwt_fault_<site>_retry_latency_seconds
/// (virtual latency, observed in seconds per the obs `_seconds` duration
/// convention) — resolved once by StageSite::resolve and updated via
/// relaxed atomics. All-null handles make every update a null check.
struct SiteMetrics {
  obs::Counter* injected = nullptr;
  obs::Counter* retried = nullptr;
  obs::Counter* exhausted = nullptr;
  obs::Counter* degraded = nullptr;
  obs::Histogram* retry_latency_seconds = nullptr;

  /// Publishes one fate (thread-safe; counters are atomic).
  void count(const CallFate& fate) const noexcept;
  void count_injected(std::uint64_t n) const noexcept;
  void count_degraded(std::uint64_t n = 1) const noexcept;
};

/// One injection site as a pipeline stage sees it, resolved once per
/// stage and shared read-only by all of its shards. `plan` is null —
/// and every metric handle with it — unless a plan is attached *and*
/// injects something at this site, which is what keeps a zero-rate run's
/// registry byte-identical to a no-plan run: the cbwt_fault_<site>_*
/// names are never even created. The handles are also null when no
/// registry is attached.
struct StageSite {
  const FaultPlan* plan = nullptr;
  Site site;
  SiteMetrics metrics;

  /// The one place the null-plan / live-site rule is written.
  [[nodiscard]] static StageSite resolve(const FaultPlan* plan, std::string_view label,
                                         obs::Registry* registry);

  [[nodiscard]] bool live() const noexcept { return plan != nullptr; }

  /// Fate of retried call `key` (fate_of), published to the site's
  /// metrics. Requires live().
  [[nodiscard]] CallFate call(std::uint64_t key) const noexcept;

  /// Single-shot decision for attempt `attempt` of call `key` (no retry,
  /// nothing published). Requires live().
  [[nodiscard]] FaultKind decide(std::uint64_t key, std::uint32_t attempt) const noexcept;
};

/// True for the kinds that lose a single-shot call outright: no answer
/// arrives (Timeout) or the call fails (Error).
[[nodiscard]] constexpr bool is_loss(FaultKind kind) noexcept {
  return kind == FaultKind::Timeout || kind == FaultKind::Error;
}

}  // namespace cbwt::fault
