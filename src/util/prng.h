// Deterministic pseudo-random number generation for the cbwt library.
//
// Everything in cbwt that needs randomness takes an explicit Rng&; the
// library never touches global random state, so a Study run is fully
// reproducible from a single 64-bit seed.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace cbwt::util {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Mixes a 64-bit value into a well-distributed hash (stateless).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  return splitmix64(x);
}

/// xoshiro256++ generator: fast, high-quality, 2^256-1 period.
///
/// Satisfies UniformRandomBitGenerator so it can also drive <random>
/// distributions, though cbwt code uses the member helpers below.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four lanes from `seed` via splitmix64.
  explicit constexpr Rng(std::uint64_t seed = 0xC0FFEE123456789ULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& lane : state_) lane = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound == 0 returns 0.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  [[nodiscard]] std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double next_double_in(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p) noexcept;

  /// Standard normal via Box-Muller (one value per call; no caching).
  [[nodiscard]] double next_normal() noexcept;

  /// Normal with given mean / stddev.
  [[nodiscard]] double next_normal(double mean, double stddev) noexcept;

  /// Exponential with given rate lambda (> 0).
  [[nodiscard]] double next_exponential(double lambda) noexcept;

  /// Bounded Pareto-ish heavy tail: x in [1, cap] with density ~ x^-(alpha+1).
  [[nodiscard]] double next_pareto(double alpha, double cap) noexcept;

  /// Poisson-distributed count (Knuth for small mean, normal approx above 64).
  [[nodiscard]] std::uint64_t next_poisson(double mean) noexcept;

  /// Derives an independent child generator; stable given the same label.
  [[nodiscard]] Rng fork(std::uint64_t label) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i + 1));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// Picks a uniformly random element; requires non-empty span.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> items) noexcept {
    return items[static_cast<std::size_t>(next_below(items.size()))];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Samples an index from unnormalized non-negative weights.
///
/// The reference sampler and the one-shot draw: it sums the clamped
/// weights, draws one next_double() and subtracts weights in order until
/// the target is spent, O(n) per call. Hot loops that draw many times from
/// the same weights use DiscreteSampler, which returns the same index for
/// every rng state. Returns weights.size() - 1 if rounding leaves residual
/// mass; returns 0 without drawing for an all-zero or empty weight vector.
[[nodiscard]] std::size_t sample_discrete(Rng& rng, std::span<const double> weights) noexcept;

/// The index sample_discrete returns when its uniform draw is `u` in [0, 1).
[[nodiscard]] std::size_t pick_discrete(std::span<const double> weights, double u) noexcept;

/// Build-once discrete sampler, O(log n) per draw.
///
/// Holds the cumulative sums of the clamped weights, summed in the order
/// sample_discrete sums them, so the target u * total is the same double.
/// A draw takes the lower_bound index when both neighbouring boundaries lie
/// farther from the target than the worst rounding gap between the two
/// summation orders; otherwise it reruns sample_discrete's sequential walk
/// from the same target. It therefore returns sample_discrete's index, and
/// consumes the same draws, for every rng state.
///
/// The lean form (cumulative_only) keeps the cumulative sums alone, half
/// the memory, for callers that hold many samplers and can recompute the
/// weights: its draws take a callable that returns the weights the sampler
/// was built from, called only for a target inside the margin.
class DiscreteSampler {
 public:
  DiscreteSampler() = default;
  explicit DiscreteSampler(std::span<const double> weights);
  [[nodiscard]] static DiscreteSampler cumulative_only(std::span<const double> weights);

  /// A draw from the full form (a cumulative-only sampler has no weights
  /// to fall back on and draws only through the overloads below).
  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;
  /// The index sample() returns when its uniform draw is `u` in [0, 1).
  [[nodiscard]] std::size_t pick(double u) const noexcept;

  /// A draw from either form; `weights()` must return the weights (a
  /// span or vector) the sampler was built from.
  template <typename Weights>
  [[nodiscard]] std::size_t sample(Rng& rng, Weights&& weights) const {
    // Like sample_discrete, an all-zero or empty sampler draws nothing.
    if (total_ <= 0.0) return 0;
    return pick(rng.next_double(), std::forward<Weights>(weights));
  }
  /// The index sample(rng, weights) returns when its uniform draw is `u`.
  template <typename Weights>
  [[nodiscard]] std::size_t pick(double u, Weights&& weights) const {
    if (total_ <= 0.0) return 0;
    const double target = u * total_;
    const std::size_t clear = clear_of_margin(target);
    return clear != kInsideMargin ? clear : walk(weights(), target);
  }

 private:
  static constexpr std::size_t kInsideMargin = static_cast<std::size_t>(-1);

  /// The lower_bound index of `target`, or kInsideMargin unless both
  /// neighbouring boundaries lie farther than the margin from it.
  [[nodiscard]] std::size_t clear_of_margin(double target) const noexcept;
  /// sample_discrete's sequential walk from `target`.
  [[nodiscard]] static std::size_t walk(std::span<const double> weights,
                                        double target) noexcept;

  std::vector<double> weights_;     ///< clamped to >= 0; empty in the lean form
  std::vector<double> cumulative_;  ///< running sums of the clamped weights
  double total_ = 0.0;
  double margin_ = 0.0;  ///< bound on |cumulative - sequential| rounding
};

/// Zipf probability masses of ranks {0, ..., n-1} with exponent s (>= 0):
/// the normalised cumulative sums of 1/(rank+1)^s, differenced. Used for
/// publisher and tracker popularity, which the measurement literature
/// finds heavy-tailed.
[[nodiscard]] std::vector<double> zipf_masses(std::size_t n, double s);

}  // namespace cbwt::util
