#include "fault/retry.h"

#include <algorithm>
#include <array>
#include <string>

#include "util/contract.h"

namespace cbwt::fault {

namespace {

/// Salt space for backoff jitter, disjoint from attempt indices (which
/// are small) so the jitter stream never aliases a decision stream.
constexpr std::uint64_t kJitterSalt = 0x4A177E5000000000ULL;

/// Buckets for the per-call virtual latency histogram (seconds; the
/// engine computes in ms, the metric exports in the `_seconds` unit).
constexpr std::array<double, 8> kLatencyBoundsSeconds = {
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 2.5};

}  // namespace

CallFate fate_of(const FaultPlan& plan, const Site& site, std::uint64_t key,
                 const RetryPolicy& policy) noexcept {
  CallFate fate;
  if (!site.rates.any()) return fate;  // zero-cost default: 1 attempt, success

  CBWT_EXPECTS(policy.max_attempts >= 1);
  fate.attempts = 0;
  double backoff = policy.base_backoff_ms;
  for (std::uint32_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    ++fate.attempts;
    const FaultKind kind = decide(plan.seed, site, key, attempt);
    switch (kind) {
      case FaultKind::None:
        fate.latency_ms += policy.base_latency_ms;
        fate.failure = FaultKind::None;
        return fate;
      case FaultKind::SlowResponse:
        fate.latency_ms += policy.base_latency_ms + policy.slow_penalty_ms;
        ++fate.injected;
        if (policy.deadline_ms > 0.0 && fate.latency_ms >= policy.deadline_ms) {
          // The late answer arrived after the caller's budget: a timeout
          // from the caller's point of view.
          fate.failure = FaultKind::Timeout;
          return fate;
        }
        fate.failure = FaultKind::None;
        return fate;
      case FaultKind::StaleData:
        fate.latency_ms += policy.base_latency_ms;
        ++fate.injected;
        fate.stale = true;
        fate.failure = FaultKind::None;
        return fate;
      case FaultKind::Timeout:
        fate.latency_ms += policy.attempt_timeout_ms;
        ++fate.injected;
        break;
      case FaultKind::Error:
        fate.latency_ms += policy.base_latency_ms;
        ++fate.injected;
        break;
    }
    fate.failure = kind;  // provisional: stands if this was the last chance
    if (policy.deadline_ms > 0.0 && fate.latency_ms >= policy.deadline_ms) {
      fate.failure = FaultKind::Timeout;
      return fate;
    }
    if (attempt + 1 < policy.max_attempts) {
      const double u =
          stateless_uniform(plan.seed, site.hash, key, kJitterSalt | attempt);
      const double factor = 1.0 + policy.jitter * (2.0 * u - 1.0);
      fate.latency_ms += std::min(backoff, policy.max_backoff_ms) * factor;
      backoff *= policy.backoff_multiplier;
      if (policy.deadline_ms > 0.0 && fate.latency_ms >= policy.deadline_ms) {
        fate.failure = FaultKind::Timeout;
        return fate;
      }
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
  const CallFate fate = fate_of(*plan, site, key, RetryPolicy{});
  metrics.count(fate);
  return fate;
}

FaultKind StageSite::decide(std::uint64_t key, std::uint32_t attempt) const noexcept {
  CBWT_EXPECTS(live());
  return fault::decide(plan->seed, site, key, attempt);
}

}  // namespace cbwt::fault
