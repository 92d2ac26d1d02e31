#include "fault/fault.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/contract.h"
#include "util/fnv1a.h"
#include "util/prng.h"
#include "util/strings.h"

namespace cbwt::fault {

std::string_view to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::None: return "none";
    case FaultKind::Timeout: return "timeout";
    case FaultKind::Error: return "error";
    case FaultKind::SlowResponse: return "slow";
    case FaultKind::StaleData: return "stale";
  }
  return "?";
}

bool FaultPlan::enabled() const noexcept {
  if (default_rates.any()) return true;
  for (const auto& [label, rates] : site_rates) {
    if (rates.any()) return true;
  }
  return false;
}

const SiteRates& FaultPlan::rates_for(std::string_view label) const noexcept {
  const auto it = site_rates.find(label);
  return it != site_rates.end() ? it->second : default_rates;
}

Site FaultPlan::site(std::string_view label) const noexcept {
  return Site{site_hash(label), rates_for(label)};
}

FaultPlan FaultPlan::uniform(std::uint64_t seed, double rate) {
  CBWT_EXPECTS(rate >= 0.0 && rate <= 1.0);
  FaultPlan plan;
  plan.seed = seed;
  plan.default_rates = {rate / 4.0, rate / 4.0, rate / 4.0, rate / 4.0};
  return plan;
}

FaultPlan FaultPlan::from_env() {
  FaultPlan plan;  // default: disabled (all rates zero)
  // from_env() runs once at startup before any worker exists; nothing
  // mutates the environment concurrently.
  const char* rate_env = std::getenv("CBWT_FAULT_RATE");  // NOLINT(concurrency-mt-unsafe)
  if (rate_env == nullptr) return plan;
  const auto rate =
      util::parse_env<double>("CBWT_FAULT_RATE", rate_env, "a finite decimal rate");
  std::uint64_t seed = plan.seed;
  if (const char* seed_env = std::getenv("CBWT_FAULT_SEED")) {  // NOLINT(concurrency-mt-unsafe)
    seed = util::parse_env<std::uint64_t>("CBWT_FAULT_SEED", seed_env, "decimal digits");
  }
  if (rate <= 0.0) return plan;
  return uniform(seed, std::min(rate, 1.0));
}

std::uint64_t site_hash(std::string_view label) noexcept {
  return util::mix64(util::fnv1a(label));
}

double stateless_uniform(std::uint64_t seed, std::uint64_t site_hash,
                         std::uint64_t key, std::uint64_t salt) noexcept {
  const std::uint64_t mixed = util::mix64(
      util::mix64(seed ^ site_hash) ^ util::mix64(key ^ util::mix64(salt)));
  // Top 53 bits -> [0, 1), the standard double construction.
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

FaultKind decide(std::uint64_t plan_seed, const Site& site, std::uint64_t key,
                 std::uint32_t attempt) noexcept {
  const SiteRates& rates = site.rates;
  if (!rates.any()) return FaultKind::None;
  const double u = stateless_uniform(plan_seed, site.hash, key, attempt);
  // Cumulative thresholds: u is rate-independent, so growing any rate
  // only widens the faulted interval (the nesting property).
  double edge = rates.timeout;
  if (u < edge) return FaultKind::Timeout;
  edge += rates.error;
  if (u < edge) return FaultKind::Error;
  edge += rates.slow;
  if (u < edge) return FaultKind::SlowResponse;
  edge += rates.stale;
  if (u < edge) return FaultKind::StaleData;
  return FaultKind::None;
}

}  // namespace cbwt::fault
