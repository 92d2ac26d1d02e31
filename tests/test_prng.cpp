#include "util/prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "browser/extension.h"
#include "geo/country.h"
#include "world/world.h"

namespace cbwt::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroBoundReturnsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.next_below(0), 0U);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7U);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  // Both endpoints reachable.
  bool lo = false;
  bool hi = false;
  for (int i = 0; i < 2000 && !(lo && hi); ++i) {
    const auto v = rng.next_in(0, 3);
    lo = lo || v == 0;
    hi = hi || v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceFrequencyTracksP) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_normal(10.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.02);
}

TEST(Rng, ParetoBounded) {
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.next_pareto(1.2, 50.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 50.0);
  }
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(37);
  for (const double mean : {0.5, 3.0, 20.0, 100.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.next_poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.1 + 0.05) << "mean " << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(41);
  EXPECT_EQ(rng.next_poisson(0.0), 0U);
  EXPECT_EQ(rng.next_poisson(-1.0), 0U);
}

TEST(Rng, ForkIsIndependentAndStable) {
  Rng a(99);
  Rng b(99);
  Rng fa = a.fork(1);
  Rng fb = b.fork(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fa(), fb());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(43);
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto copy = values;
  rng.shuffle(std::span<int>(copy));
  EXPECT_NE(copy, values);  // astronomically unlikely to be identity
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, values);
}

TEST(SampleDiscrete, RespectsWeights) {
  Rng rng(47);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[sample_discrete(rng, weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(SampleDiscrete, AllZeroWeightsReturnsZero) {
  Rng rng(53);
  const std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(sample_discrete(rng, weights), 0U);
}

TEST(SampleDiscrete, NegativeWeightsTreatedAsZero) {
  Rng rng(59);
  const std::vector<double> weights = {-5.0, 1.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sample_discrete(rng, weights), 1U);
}

// --- DiscreteSampler vs sample_discrete --------------------------------

/// Draws `draws` indices through sample_discrete, a DiscreteSampler and
/// a cumulative-only one on triplet rngs: every index and the final rng
/// states must agree.
void expect_same_draws(std::span<const double> weights, std::uint64_t seed, int draws) {
  const DiscreteSampler sampler(weights);
  const auto lean = DiscreteSampler::cumulative_only(weights);
  const auto recompute = [&] { return std::vector<double>(weights.begin(), weights.end()); };
  Rng reference(seed);
  Rng candidate(seed);
  Rng lean_candidate(seed);
  for (int i = 0; i < draws; ++i) {
    const std::size_t want = sample_discrete(reference, weights);
    const std::size_t got = sampler.sample(candidate);
    const std::size_t got_lean = lean.sample(lean_candidate, recompute);
    if (want != got || want != got_lean) {
      ADD_FAILURE() << "draw " << i << ": sample_discrete " << want << ", sampler " << got
                    << ", cumulative-only " << got_lean;
      return;
    }
  }
  const auto next = reference();
  EXPECT_EQ(candidate(), next);
  EXPECT_EQ(lean_candidate(), next);
}

/// Uniform draws that put the target on, and a few ulps either side of,
/// every cumulative boundary: where the two summation orders can round
/// apart and DiscreteSampler must fall back to the sequential walk.
std::vector<double> boundary_draws(std::span<const double> weights) {
  double total = 0.0;
  for (const double w : weights) total += std::max(w, 0.0);
  std::vector<double> draws = {0.0, std::nextafter(1.0, 0.0)};
  if (!(total > 0.0) || !std::isfinite(total)) return draws;
  double running = 0.0;
  for (const double w : weights) {
    running += std::max(w, 0.0);
    double u = running / total;
    for (int step = 0; step < 4; ++step) u = std::nextafter(u, 0.0);
    for (int step = 0; step < 9; ++step, u = std::nextafter(u, 1.0)) {
      if (u >= 0.0 && u < 1.0) draws.push_back(u);
    }
  }
  return draws;
}

void expect_same_boundary_picks(std::span<const double> weights) {
  const DiscreteSampler sampler(weights);
  const auto lean = DiscreteSampler::cumulative_only(weights);
  for (const double u : boundary_draws(weights)) {
    ASSERT_EQ(sampler.pick(u), pick_discrete(weights, u)) << "u = " << u;
    ASSERT_EQ(lean.pick(u, [&] { return weights; }), pick_discrete(weights, u)) << "u = " << u;
  }
}

/// Weights in [1e-3, 1e3) with a log-uniform spread.
std::vector<double> spread_weights(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  for (auto& w : weights) w = std::pow(10.0, rng.next_double_in(-3.0, 3.0));
  return weights;
}

TEST(DiscreteSampler, MatchesSampleDiscreteOnEdgeWeights) {
  std::vector<double> extreme;  // 1e-300 .. 1e300, every tenth decade
  for (int e = -300; e <= 300; e += 10) extreme.push_back(std::pow(10.0, e));
  std::vector<double> extreme_shuffled = extreme;
  Rng shuffler(5);
  shuffler.shuffle(std::span<double>(extreme_shuffled));
  const std::vector<std::vector<double>> cases = {
      {0.0, 1.0, 0.0, 2.0, 0.0},           // zeros
      {-5.0, 1.0, -0.0, 3.0, -1e300},      // negatives
      {0.0, 0.0, 0.0},                     // all zero: no draw
      {},                                  // empty: no draw
      {7.5},                               // single element
      {-1.0},                              // single non-positive
      extreme,
      extreme_shuffled,
      {1e308, 1e308, 1.0},                 // total overflows to inf
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}, // non-representable decimals
      spread_weights(1000, 11),
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    expect_same_draws(cases[c], 100 + c, 100000);
    expect_same_boundary_picks(cases[c]);
  }
}

TEST(DiscreteSampler, BoundaryTargetsReachTheFallback) {
  // Boundary draws where the lower_bound index alone differs from the
  // sequential walk: both forms must still return the walk's index, the
  // cumulative-only one by recomputing its weights for each such draw.
  std::size_t disagreements = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto weights = spread_weights(200, seed);
    std::vector<double> cumulative;
    double total = 0.0;
    for (const double w : weights) cumulative.push_back(total += w);
    const DiscreteSampler sampler(weights);
    const auto lean = DiscreteSampler::cumulative_only(weights);
    for (const double u : boundary_draws(weights)) {
      const std::size_t want = pick_discrete(weights, u);
      const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u * total);
      const auto naive = std::min<std::size_t>(
          static_cast<std::size_t>(it - cumulative.begin()), weights.size() - 1);
      bool recomputed = false;
      const auto recompute = [&] {
        recomputed = true;
        return weights;
      };
      ASSERT_EQ(sampler.pick(u), want) << "seed " << seed << ", u = " << u;
      ASSERT_EQ(lean.pick(u, recompute), want) << "seed " << seed << ", u = " << u;
      if (naive != want) {
        ++disagreements;
        ASSERT_TRUE(recomputed) << "seed " << seed << ", u = " << u;
      }
    }
    // A draw well inside one probe's interval never recomputes.
    bool recomputed = false;
    const double u = (cumulative[99] + weights[100] / 2) / total;
    EXPECT_EQ(lean.pick(u, [&] {
      recomputed = true;
      return weights;
    }), 100U);
    EXPECT_FALSE(recomputed) << "seed " << seed;
  }
  EXPECT_GT(disagreements, 0U);
}

TEST(DiscreteSampler, MatchesSampleDiscreteOnWorldWeights) {
  // The weight vectors the hot loops draw from, in a scale-0.02 world.
  world::WorldConfig config;
  config.seed = 1001;
  config.scale = 0.02;
  const world::World world = world::build_world(config);

  std::vector<double> countries;  // pDNS query origins
  for (const auto& country : geo::all_countries()) countries.push_back(country.population_m);
  std::vector<double> tracking;   // pDNS and NetFlow tracking domains
  for (const auto id : world.tracking_domain_ids()) {
    tracking.push_back(world.org(world.domain(id).org).popularity);
  }
  std::vector<double> clean;      // NetFlow background domains
  for (const auto& domain : world.domains()) {
    if (world.org(domain.org).role == world::OrgRole::CleanService) {
      clean.push_back(world.org(domain.org).popularity);
    }
  }
  ASSERT_FALSE(tracking.empty());
  ASSERT_FALSE(clean.empty());
  const std::vector<std::pair<std::string, std::vector<double>>> cases = {
      {"countries", countries},
      {"tracking", tracking},
      {"clean", clean},
      {"publishers of user 0", browser::publisher_weights(world, world.users().front())},
      {"publishers of the last user", browser::publisher_weights(world, world.users().back())},
  };
  std::uint64_t seed = 1;
  for (const auto& [name, weights] : cases) {
    SCOPED_TRACE(name);
    expect_same_draws(weights, seed++, name.starts_with("publishers") ? 50000 : 200000);
    expect_same_boundary_picks(weights);
  }
}

// --- zipf_masses ----------------------------------------------------------

TEST(ZipfMasses, MassSumsToOne) {
  const auto masses = zipf_masses(100, 1.0);
  ASSERT_EQ(masses.size(), 100U);
  double total = 0.0;
  for (const double mass : masses) total += mass;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfMasses, MassIsMonotoneDecreasing) {
  const auto masses = zipf_masses(50, 1.1);
  for (std::size_t i = 1; i < masses.size(); ++i) {
    EXPECT_LE(masses[i], masses[i - 1] + 1e-12);
  }
}

TEST(ZipfMasses, SamplingMatchesMass) {
  Rng rng(61);
  const auto masses = zipf_masses(10, 1.0);
  const DiscreteSampler zipf(masses);
  std::array<int, 10> counts{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / n, masses[r], 0.01) << "rank " << r;
  }
}

TEST(ZipfMasses, ZeroExponentIsUniform) {
  const auto masses = zipf_masses(4, 0.0);
  for (const double mass : masses) EXPECT_NEAR(mass, 0.25, 1e-9);
}

TEST(ZipfMasses, DifferencesOfTheNormalisedCdf) {
  // Bit for bit what the world's popularities were built from: the
  // normalised running sums of 1/(rank+1)^s, differenced.
  for (const double s : {0.0, 0.9, 1.0, 1.3}) {
    const std::size_t n = 997;
    std::vector<double> cdf;
    double running = 0.0;
    for (std::size_t rank = 0; rank < n; ++rank) {
      running += 1.0 / std::pow(static_cast<double>(rank + 1), s);
      cdf.push_back(running);
    }
    for (double& value : cdf) value /= running;
    const auto masses = zipf_masses(n, s);
    ASSERT_EQ(masses.size(), n);
    for (std::size_t rank = 0; rank < n; ++rank) {
      const double want = rank == 0 ? cdf[0] : cdf[rank] - cdf[rank - 1];
      ASSERT_EQ(masses[rank], want) << "s " << s << ", rank " << rank;
    }
  }
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(123), mix64(123));
  EXPECT_NE(mix64(123), mix64(124));
}

}  // namespace
}  // namespace cbwt::util
