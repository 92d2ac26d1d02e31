#include "util/prng.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace cbwt::util {

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless bounded sampling with rejection.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(range));
}

double Rng::next_double() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::next_double_in(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::next_normal() noexcept {
  // Box-Muller; u1 is kept away from zero so log() stays finite.
  double u1 = next_double();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = next_double();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::next_normal(double mean, double stddev) noexcept {
  return mean + stddev * next_normal();
}

double Rng::next_exponential(double lambda) noexcept {
  double u = next_double();
  if (u < 1e-300) u = 1e-300;
  return -std::log(u) / lambda;
}

double Rng::next_pareto(double alpha, double cap) noexcept {
  // Inverse-CDF sampling of a Pareto truncated at `cap`.
  const double u = next_double();
  const double h = 1.0 - std::pow(cap, -alpha);
  const double x = std::pow(1.0 - u * h, -1.0 / alpha);
  return std::min(x, cap);
}

std::uint64_t Rng::next_poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    const double v = next_normal(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double product = next_double();
  std::uint64_t count = 0;
  while (product > limit) {
    ++count;
    product *= next_double();
  }
  return count;
}

Rng Rng::fork(std::uint64_t label) noexcept {
  std::uint64_t seed = (*this)() ^ mix64(label);
  return Rng{seed};
}

namespace {

double clamped_total(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (const double w : weights) total += std::max(w, 0.0);
  return total;
}

/// The reference walk: subtracts the clamped weights from `target` in
/// order and returns the index that spends it.
std::size_t walk(std::span<const double> weights, double target) noexcept {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= std::max(weights[i], 0.0);
    if (target <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace

std::size_t sample_discrete(Rng& rng, std::span<const double> weights) noexcept {
  const double total = clamped_total(weights);
  if (total <= 0.0 || weights.empty()) return 0;
  return walk(weights, rng.next_double() * total);
}

std::size_t pick_discrete(std::span<const double> weights, double u) noexcept {
  const double total = clamped_total(weights);
  if (total <= 0.0 || weights.empty()) return 0;
  return walk(weights, u * total);
}

DiscreteSampler::DiscreteSampler(std::span<const double> weights)
    : DiscreteSampler(cumulative_only(weights)) {
  weights_.reserve(weights.size());
  for (const double w : weights) weights_.push_back(std::max(w, 0.0));
}

DiscreteSampler DiscreteSampler::cumulative_only(std::span<const double> weights) {
  DiscreteSampler sampler;
  sampler.cumulative_.reserve(weights.size());
  for (const double w : weights) {
    sampler.total_ += std::max(w, 0.0);
    sampler.cumulative_.push_back(sampler.total_);
  }
  // The running sums and the sequential walk each round once per weight,
  // every time by at most half an ulp of the total, so the walk's value
  // after index i and target - cumulative_[i] differ by under (2n + 1)
  // such half-ulps. The margin is at least 8(n + 1) of them, which also
  // covers sums that pass through subnormals.
  sampler.margin_ = sampler.total_ * (4.0 * std::numeric_limits<double>::epsilon() *
                                      static_cast<double>(weights.size() + 1));
  return sampler;
}

std::size_t DiscreteSampler::sample(Rng& rng) const noexcept {
  return sample(rng, [this] { return std::span<const double>(weights_); });
}

std::size_t DiscreteSampler::pick(double u) const noexcept {
  return pick(u, [this] { return std::span<const double>(weights_); });
}

std::size_t DiscreteSampler::clear_of_margin(double target) const noexcept {
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), target);
  if (it == cumulative_.end()) return kInsideMargin;
  const auto j = static_cast<std::size_t>(it - cumulative_.begin());
  const double below = j == 0 ? 0.0 : cumulative_[j - 1];
  // Written so a NaN or infinite total fails the test and falls back.
  if (target - below > margin_ && *it - target > margin_) return j;
  return kInsideMargin;
}

std::size_t DiscreteSampler::walk(std::span<const double> weights, double target) noexcept {
  return cbwt::util::walk(weights, target);
}

std::vector<double> zipf_masses(std::size_t n, double s) {
  std::vector<double> masses;
  masses.reserve(n);
  double running = 0.0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    running += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    masses.push_back(running);
  }
  for (double& value : masses) value /= running;
  for (std::size_t rank = n; rank-- > 1;) masses[rank] -= masses[rank - 1];
  return masses;
}

}  // namespace cbwt::util
