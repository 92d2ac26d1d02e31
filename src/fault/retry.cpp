#include "fault/retry.h"

#include <array>
#include <string>

#include "util/contract.h"

namespace cbwt::fault {

namespace {

// The one retry policy; every duration is virtual milliseconds.
constexpr std::uint32_t kMaxAttempts = 3;
/// Cost of an attempt that answers (successfully or with an error).
constexpr double kBaseLatencyMs = 1.0;
/// Cost of a timed-out attempt (the attempt budget).
constexpr double kAttemptTimeoutMs = 250.0;
/// Extra cost of a SlowResponse attempt.
constexpr double kSlowPenaltyMs = 100.0;
/// Backoff between attempts: base * multiplier^n, each wait scaled by a
/// seeded factor in [1 - jitter, 1 + jitter].
constexpr double kBaseBackoffMs = 10.0;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kJitter = 0.5;

/// Salt space for backoff jitter, disjoint from attempt indices (which
/// are small) so the jitter stream never aliases a decision stream.
constexpr std::uint64_t kJitterSalt = 0x4A177E5000000000ULL;

/// Buckets for the per-call virtual latency histogram (seconds; the
/// engine computes in ms, the metric exports in the `_seconds` unit).
constexpr std::array<double, 8> kLatencyBoundsSeconds = {
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 2.5};

}  // namespace

CallFate fate_of(const FaultPlan& plan, const Site& site, std::uint64_t key) noexcept {
  CallFate fate;
  if (!site.rates.any()) return fate;  // zero-cost default: 1 attempt, success

  fate.attempts = 0;
  double backoff = kBaseBackoffMs;
  for (std::uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ++fate.attempts;
    const FaultKind kind = decide(plan.seed, site, key, attempt);
    switch (kind) {
      case FaultKind::None:
        fate.latency_ms += kBaseLatencyMs;
        fate.failure = FaultKind::None;
        return fate;
      case FaultKind::SlowResponse:
        fate.latency_ms += kBaseLatencyMs + kSlowPenaltyMs;
        ++fate.injected;
        fate.failure = FaultKind::None;
        return fate;
      case FaultKind::StaleData:
        fate.latency_ms += kBaseLatencyMs;
        ++fate.injected;
        fate.stale = true;
        fate.failure = FaultKind::None;
        return fate;
      case FaultKind::Timeout:
        fate.latency_ms += kAttemptTimeoutMs;
        ++fate.injected;
        break;
      case FaultKind::Error:
        fate.latency_ms += kBaseLatencyMs;
        ++fate.injected;
        break;
    }
    fate.failure = kind;  // provisional: stands if this was the last chance
    if (attempt + 1 < kMaxAttempts) {
      const double u =
          stateless_uniform(plan.seed, site.hash, key, kJitterSalt | attempt);
      const double factor = 1.0 + kJitter * (2.0 * u - 1.0);
      fate.latency_ms += backoff * factor;
      backoff *= kBackoffMultiplier;
    }
  }
  return fate;  // exhausted: failure holds the last attempt's kind
}

void SiteMetrics::count(const CallFate& fate) const noexcept {
  if (injected == nullptr) return;
  if (fate.injected > 0) injected->add(fate.injected);
  if (fate.attempts > 1) retried->add(fate.attempts - 1);
  if (!fate.ok()) exhausted->add(1);
  if (fate.attempts > 1) retry_latency_seconds->observe(fate.latency_ms / 1000.0);
}

void SiteMetrics::count_injected(std::uint64_t n) const noexcept {
  if (injected != nullptr && n > 0) injected->add(n);
}

void SiteMetrics::count_degraded(std::uint64_t n) const noexcept {
  if (degraded != nullptr && n > 0) degraded->add(n);
}

StageSite StageSite::resolve(const FaultPlan* plan, std::string_view label,
                             obs::Registry* registry) {
  StageSite stage;
  if (plan == nullptr) return stage;
  const Site site = plan->site(label);
  if (!site.rates.any()) return stage;
  stage.plan = plan;
  stage.site = site;
  if (registry == nullptr) return stage;
  const std::string prefix = "cbwt_fault_" + std::string(label);
  stage.metrics.injected = &registry->counter(prefix + "_injected_total");
  stage.metrics.retried = &registry->counter(prefix + "_retried_total");
  stage.metrics.exhausted = &registry->counter(prefix + "_exhausted_total");
  stage.metrics.degraded = &registry->counter(prefix + "_degraded_total");
  stage.metrics.retry_latency_seconds =
      &registry->histogram(prefix + "_retry_latency_seconds", kLatencyBoundsSeconds);
  return stage;
}

CallFate StageSite::call(std::uint64_t key) const noexcept {
  CBWT_EXPECTS(live());
  const CallFate fate = fate_of(*plan, site, key);
  metrics.count(fate);
  return fate;
}

FaultKind StageSite::decide(std::uint64_t key, std::uint32_t attempt) const noexcept {
  CBWT_EXPECTS(live());
  return fault::decide(plan->seed, site, key, attempt);
}

}  // namespace cbwt::fault
