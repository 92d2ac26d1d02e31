#include "fault/fault.h"
#include "fault/retry.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault_check.h"
#include "geoloc/active.h"
#include "obs/metrics.h"
#include "world/world.h"

namespace cbwt::fault {
namespace {

// --- FaultPlan -------------------------------------------------------

TEST(FaultPlan, UniformSplitsRateAcrossKinds) {
  const auto plan = FaultPlan::uniform(7, 0.2);
  EXPECT_TRUE(plan.enabled());
  EXPECT_DOUBLE_EQ(plan.default_rates.total(), 0.2);
  EXPECT_DOUBLE_EQ(plan.default_rates.timeout, 0.05);
  // Rate zero is the disabled plan, not a plan that faults nothing by luck.
  EXPECT_FALSE(FaultPlan::uniform(7, 0.0).enabled());
  EXPECT_FALSE(FaultPlan{}.enabled());
}

TEST(FaultPlan, SiteOverridesShadowDefaults) {
  FaultPlan plan;
  plan.site_rates["dns"] = {.timeout = 0.5};
  EXPECT_TRUE(plan.enabled());
  EXPECT_DOUBLE_EQ(plan.rates_for(sites::kDns).timeout, 0.5);
  // Unlisted sites fall back to the (zero) defaults.
  EXPECT_FALSE(plan.rates_for(sites::kPdns).any());
  EXPECT_FALSE(plan.site(sites::kGeoProbe).rates.any());
  // Site hashes are stable and distinct per label.
  EXPECT_EQ(plan.site(sites::kDns).hash, site_hash("dns"));
  EXPECT_NE(site_hash("dns"), site_hash("pdns"));
}

TEST(FaultPlan, FromEnvParsesRateAndSeed) {
  ASSERT_EQ(::setenv("CBWT_FAULT_RATE", "0.3", 1), 0);
  ASSERT_EQ(::setenv("CBWT_FAULT_SEED", "42", 1), 0);
  const auto plan = FaultPlan::from_env();
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.default_rates.total(), 0.3);

  ASSERT_EQ(::setenv("CBWT_FAULT_RATE", "0", 1), 0);
  EXPECT_FALSE(FaultPlan::from_env().enabled());
  ASSERT_EQ(::setenv("CBWT_FAULT_RATE", "-0.5", 1), 0);
  EXPECT_FALSE(FaultPlan::from_env().enabled());
  ASSERT_EQ(::setenv("CBWT_FAULT_RATE", "2.5", 1), 0);
  EXPECT_DOUBLE_EQ(FaultPlan::from_env().default_rates.total(), 1.0);  // clamped

  // Anything but a finite decimal rate and a decimal seed is rejected,
  // naming the variable, instead of silently running another plan.
  const auto rejects = [](const char* rate, const char* seed, const char* variable) {
    ASSERT_EQ(::setenv("CBWT_FAULT_RATE", rate, 1), 0);
    ASSERT_EQ(::setenv("CBWT_FAULT_SEED", seed, 1), 0);
    try {
      (void)FaultPlan::from_env();
      ADD_FAILURE() << "accepted rate '" << rate << "' seed '" << seed << "'";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(variable), std::string::npos) << error.what();
    }
  };
  for (const char* rate : {"nan", "inf", "0.1junk", "abc", "0x1F", "", " 0.1"}) {
    rejects(rate, "42", "CBWT_FAULT_RATE");
  }
  for (const char* seed : {"-1", "abc", "0x1F", "", "+7", "18446744073709551616"}) {
    rejects("0.3", seed, "CBWT_FAULT_SEED");
  }

  ASSERT_EQ(::unsetenv("CBWT_FAULT_RATE"), 0);
  ASSERT_EQ(::unsetenv("CBWT_FAULT_SEED"), 0);
  EXPECT_FALSE(FaultPlan::from_env().enabled());
}

// --- decide: the stateless core --------------------------------------

TEST(Decide, DeterministicPureFunction) {
  const auto plan = FaultPlan::uniform(0xFA, 0.25);
  const Site site = plan.site(sites::kDns);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(decide(plan.seed, site, key, 0), decide(plan.seed, site, key, 0));
    // Attempts index independent streams: the retry of a faulted attempt
    // is a fresh draw, not a replay.
    (void)decide(plan.seed, site, key, 1);
  }
  // Different sites and seeds decorrelate.
  const Site other = plan.site(sites::kPdns);
  std::size_t differing = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    if (decide(plan.seed, site, key, 0) != decide(plan.seed, other, key, 0)) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(Decide, FaultSetsNestAcrossRates) {
  // A call faulted at rate r stays faulted at every rate >= r: the
  // decision uniform is rate-independent and the faulted interval only
  // widens. This is the root of monotone degradation.
  const std::array<std::uint64_t, 3> seeds = {1, 0xFA017, 20180901};
  const std::array<double, 3> rates = {0.05, 0.2, 0.6};
  for (const auto seed : seeds) {
    for (std::size_t lo = 0; lo < rates.size(); ++lo) {
      for (std::size_t hi = lo + 1; hi < rates.size(); ++hi) {
        const auto low = FaultPlan::uniform(seed, rates[lo]).site(sites::kGeoProbe);
        const auto high = FaultPlan::uniform(seed, rates[hi]).site(sites::kGeoProbe);
        for (std::uint64_t key = 0; key < 2000; ++key) {
          if (decide(seed, low, key, 0) != FaultKind::None) {
            EXPECT_NE(decide(seed, high, key, 0), FaultKind::None)
                << "seed " << seed << " key " << key;
          }
        }
      }
    }
  }
}

TEST(Decide, EmpiricalRateMatchesPlan) {
  const double rate = 0.3;
  const auto plan = FaultPlan::uniform(99, rate);
  const Site site = plan.site(sites::kNetflowExport);
  std::size_t faulted = 0;
  constexpr std::size_t kKeys = 20000;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    if (decide(plan.seed, site, key, 0) != FaultKind::None) ++faulted;
  }
  const double observed = static_cast<double>(faulted) / kKeys;
  EXPECT_NEAR(observed, rate, 0.02);
}

// --- fate_of ---------------------------------------------------------

TEST(FateOf, ZeroRatesShortCircuitToFreeSuccess) {
  const FaultPlan plan;
  const auto fate = fate_of(plan, plan.site(sites::kDns), 1);
  EXPECT_TRUE(fate.ok());
  EXPECT_EQ(fate.attempts, 1u);
  EXPECT_EQ(fate.injected, 0u);
  EXPECT_DOUBLE_EQ(fate.latency_ms, 0.0);
}

TEST(FateOf, CertainErrorExhaustsEveryAttempt) {
  FaultPlan plan;
  plan.default_rates.error = 1.0;
  const auto fate = fate_of(plan, plan.site(sites::kDns), 5);
  EXPECT_FALSE(fate.ok());
  EXPECT_EQ(fate.failure, FaultKind::Error);
  EXPECT_EQ(fate.attempts, 3u);
  EXPECT_EQ(fate.injected, 3u);
  // 3 error attempts at 1 ms + 2 jittered backoffs: latency exceeds the
  // attempts alone and is reproducible.
  EXPECT_GT(fate.latency_ms, 3.0);
  const auto again = fate_of(plan, plan.site(sites::kDns), 5);
  EXPECT_DOUBLE_EQ(again.latency_ms, fate.latency_ms);
}

TEST(FateOf, StaleDataSucceedsButFlags) {
  FaultPlan plan;
  plan.default_rates.stale = 1.0;
  const auto fate = fate_of(plan, plan.site(sites::kPdns), 3);
  EXPECT_TRUE(fate.ok());
  EXPECT_TRUE(fate.stale);
  EXPECT_EQ(fate.attempts, 1u);
  EXPECT_EQ(fate.injected, 1u);
}

TEST(FateOf, SlowResponseCanBlowTheDeadline) {
  FaultPlan plan;
  plan.default_rates.slow = 1.0;
  // A slow answer still arrives, 100 ms late.
  const auto late_but_ok = fate_of(plan, plan.site(sites::kDns), 9);
  EXPECT_TRUE(late_but_ok.ok());
  EXPECT_GE(late_but_ok.latency_ms, 100.0);
}

// --- StageSite: the one null-plan / live-site rule --------------------

TEST(FaultSiteMetrics, NullHandlesUnlessThePlanIsLiveAtTheSite) {
  obs::Registry registry;
  const auto zero = FaultPlan::uniform(1, 0.0);
  FaultPlan dns_only;
  dns_only.site_rates[std::string(sites::kDns)] = {.error = 1.0};
  // No plan, a zero-rate plan, and a plan live only at another site all
  // resolve to null handles and leave the registry's name set untouched.
  const std::array<const FaultPlan*, 3> idle_plans = {nullptr, &zero, &dns_only};
  for (const FaultPlan* plan : idle_plans) {
    const auto stage = StageSite::resolve(plan, sites::kPdns, &registry);
    EXPECT_FALSE(stage.live());
    EXPECT_EQ(stage.metrics.injected, nullptr);
    EXPECT_EQ(stage.metrics.retried, nullptr);
    EXPECT_EQ(stage.metrics.exhausted, nullptr);
    EXPECT_EQ(stage.metrics.degraded, nullptr);
    EXPECT_EQ(stage.metrics.retry_latency_seconds, nullptr);
  }
  EXPECT_TRUE(registry.counters().empty());
  EXPECT_TRUE(registry.histograms().empty());

  // The live site resolves once and publishes every fate it computes.
  const auto dns = StageSite::resolve(&dns_only, sites::kDns, &registry);
  ASSERT_TRUE(dns.live());
  const auto fate = dns.call(/*key=*/7);
  EXPECT_FALSE(fate.ok());
  EXPECT_EQ(fate.attempts, 3u);
  EXPECT_DOUBLE_EQ(fate.latency_ms,
                   fate_of(dns_only, dns_only.site(sites::kDns), 7).latency_ms);
  dns.metrics.count_degraded();
  EXPECT_EQ(registry.counter_value("cbwt_fault_dns_injected_total"), 3u);
  EXPECT_EQ(registry.counter_value("cbwt_fault_dns_retried_total"), 2u);
  EXPECT_EQ(registry.counter_value("cbwt_fault_dns_exhausted_total"), 1u);
  EXPECT_EQ(registry.counter_value("cbwt_fault_dns_degraded_total"), 1u);
  for (const auto& [name, value] : registry.counters()) {
    EXPECT_TRUE(name.starts_with("cbwt_fault_dns_")) << name;
  }
}

// --- Probe-loss properties (geolocation) ------------------------------

class FaultWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world::WorldConfig config;
    config.seed = 9001;
    config.scale = 0.01;
    config.publishers = 300;
    world_ = new world::World(world::build_world(config));
    util::Rng mesh_rng(1);
    mesh_ = new geoloc::ProbeMesh(geoloc::MeshConfig{}, mesh_rng);
  }
  static void TearDownTestSuite() {
    delete mesh_;
    delete world_;
  }
  static world::World* world_;
  static geoloc::ProbeMesh* mesh_;
};

world::World* FaultWorldTest::world_ = nullptr;
geoloc::ProbeMesh* FaultWorldTest::mesh_ = nullptr;

TEST_F(FaultWorldTest, LocatedCountMonotoneInProbeLossRate) {
  constexpr std::uint64_t kMeasureSeed = 1234;
  constexpr std::size_t kIps = 120;
  const std::array<double, 5> rates = {0.0, 0.05, 0.15, 0.35, 0.6};
  std::vector<std::size_t> counts;
  for (const double rate : rates) {
    counts.push_back(fault_check::located_count(
        *world_, *mesh_, fault_check::loss_plan(0xFA017, rate), kIps, kMeasureSeed));
  }
  // Rate 0 locates everything this mesh can locate; total loss locates
  // nothing below quorum.
  EXPECT_EQ(counts.front(),
            fault_check::located_count(*world_, *mesh_, FaultPlan{}, kIps, kMeasureSeed));
  fault_check::expect_monotone_non_increasing<std::size_t>(counts, rates);
  EXPECT_EQ(fault_check::located_count(*world_, *mesh_, fault_check::loss_plan(0xFA017, 1.0),
                                       kIps, kMeasureSeed),
            0u);
}

TEST_F(FaultWorldTest, LossIsAppliedAfterMeasurementSoVerdictsDegradeGracefully) {
  // At a moderate loss rate, every still-located verdict must be backed
  // by a surviving panel >= quorum, and lost_probes must be reported.
  const auto plan = fault_check::loss_plan(7, 0.3);
  geoloc::ActiveGeolocatorOptions options;
  const geoloc::ActiveGeolocator locator(*world_, *mesh_, options);
  std::size_t with_losses = 0;
  std::size_t checked = 0;
  for (const auto& server : world_->servers()) {
    if (checked++ >= 50) break;
    util::Rng rng(util::mix64(1234 ^ server.ip.hash()));
    const auto estimate = locator.locate(server.ip, rng, &plan);
    if (estimate.lost_probes > 0) ++with_losses;
    const std::uint32_t survivors =
        options.probes_per_measurement - estimate.lost_probes;
    if (!estimate.country.empty()) {
      EXPECT_GE(survivors, options.quorum);
    }
  }
  EXPECT_GT(with_losses, 0u);
}

TEST_F(FaultWorldTest, SurvivingProbeSetsNestAcrossRates) {
  // Scenario sweep: at any (seed, pair of rates), a panel slot that
  // survives the higher loss rate also survives the lower one.
  const std::array<std::uint64_t, 2> seeds = {3, 0xFA017};
  const std::array<double, 3> rates = {0.1, 0.3, 0.7};
  const std::uint64_t key = world_->servers().front().ip.hash();
  for (const auto seed : seeds) {
    for (std::size_t lo = 0; lo < rates.size(); ++lo) {
      for (std::size_t hi = lo + 1; hi < rates.size(); ++hi) {
        const auto low = fault_check::loss_plan(seed, rates[lo]).site(sites::kGeoProbe);
        const auto high = fault_check::loss_plan(seed, rates[hi]).site(sites::kGeoProbe);
        for (std::uint32_t slot = 0; slot < 100; ++slot) {
          const bool lost_low = decide(seed, low, key, slot) != FaultKind::None;
          const bool lost_high = decide(seed, high, key, slot) != FaultKind::None;
          if (lost_low) {
            EXPECT_TRUE(lost_high);
          }
        }
      }
    }
  }
}

// --- End-to-end chaos studies ----------------------------------------

/// Determinism under fault: a fixed (study seed, plan) yields the same
/// outcome — study outputs AND fault counters — at threads 1/2/8.
class ChaosThreadSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChaosThreadSweep, MatchesSerialReferenceUnderFaults) {
  const auto plan = FaultPlan::uniform(0xFA017, 0.2);
  const auto reference = fault_check::run_chaos_study(20180901, 1, plan);
  const auto candidate = fault_check::run_chaos_study(20180901, GetParam(), plan);
  fault_check::expect_same_outcome(candidate, reference, "threads vs serial");
  // The plan is live: the run must actually have injected something.
  EXPECT_FALSE(reference.fault_counters.empty());
  std::uint64_t injected = 0;
  for (const auto& [name, value] : reference.fault_counters) {
    if (name.ends_with("_injected_total")) injected += value;
  }
  EXPECT_GT(injected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ChaosThreadSweep, ::testing::Values(2u, 8u),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

TEST(ChaosStudy, RateZeroIsByteIdenticalToNoPlan) {
  // Zero-cost default: a rate-0 plan takes exactly the fault-free code
  // path. Outputs match and no cbwt_fault_* metric name is ever created.
  const auto without = fault_check::run_chaos_study(20180901, 1, FaultPlan{}, 64);
  const auto zero =
      fault_check::run_chaos_study(20180901, 1, FaultPlan::uniform(0xDEAD, 0.0), 64);
  fault_check::expect_same_outcome(zero, without, "rate-0 vs no plan");
  EXPECT_TRUE(without.fault_counters.empty());
  EXPECT_TRUE(zero.fault_counters.empty());
  // The reports themselves embed wall-clock span timings, so compare the
  // structural claim only: both runs report the fault layer as disabled.
  EXPECT_NE(zero.run_report.find("\"fault\":{\"enabled\":false}"), std::string::npos);
  EXPECT_NE(without.run_report.find("\"fault\":{\"enabled\":false}"), std::string::npos);
}

TEST(ChaosStudy, PdnsDegradationNestsAcrossRates) {
  // Every replication query's fate is pure in (plan seed, site, key), so
  // an observation the feed loses at one rate is lost at every higher
  // rate: per (fqdn, ip) pair, the observation count never grows with
  // the rate. Stale answers keep the pair and only move its day. At
  // threads 4 the faulted queries run on a pool worker, beside
  // collection; the counts must not change.
  using PairCounts = std::map<std::pair<std::string, net::IpAddress>, std::uint64_t>;
  const auto pair_counts = [](double rate, unsigned threads) {
    core::Study study(
        fault_check::chaos_config(20180901, threads, FaultPlan::uniform(0xFA017, rate)));
    PairCounts counts;
    for (const auto& record : study.pdns_store().records()) {
      counts[{record.fqdn, record.ip}] += record.observations;
    }
    return counts;
  };
  const std::array<double, 5> rates = {0.0, 0.2, 0.5, 0.8, 1.0};
  std::vector<PairCounts> runs;
  for (const double rate : rates) {
    runs.push_back(pair_counts(rate, 1));
    EXPECT_EQ(pair_counts(rate, 4), runs.back()) << "rate " << rate;
  }
  for (std::size_t lo = 0; lo < rates.size(); ++lo) {
    for (std::size_t hi = lo + 1; hi < rates.size(); ++hi) {
      for (const auto& [pair, count] : runs[hi]) {
        const auto it = runs[lo].find(pair);
        const std::uint64_t low_count = it == runs[lo].end() ? 0 : it->second;
        EXPECT_LE(count, low_count) << pair.first << " " << pair.second.to_string()
                                    << " rates " << rates[lo] << " < " << rates[hi];
      }
    }
  }
  // The sweep degrades: total loss keeps fewer observations than none.
  const auto total = [](const PairCounts& counts) {
    std::uint64_t sum = 0;
    for (const auto& [pair, count] : counts) sum += count;
    return sum;
  };
  EXPECT_LT(total(runs.back()), total(runs.front()));
}

TEST(ChaosStudy, GracefulDegradationEndToEnd) {
  // The CI chaos-smoke entry point: rate and seed come from the
  // environment (CBWT_FAULT_RATE / CBWT_FAULT_SEED) when set, and the
  // run report can be published as an artifact via CBWT_FAULT_REPORT.
  auto plan = FaultPlan::from_env();
  if (!plan.enabled()) plan = FaultPlan::uniform(0xC0FFEE, 0.2);
  const auto outcome = fault_check::run_chaos_study(20180901, 2, plan);

  // The pipeline survived and stayed internally consistent.
  EXPECT_GT(outcome.exported_records, 0u);
  EXPECT_EQ(outcome.records_seen + outcome.dropped_records, outcome.exported_records);
  EXPECT_LE(outcome.matched_records, outcome.internal_records);
  EXPECT_LE(outcome.internal_records, outcome.records_seen);
  EXPECT_GT(outcome.dropped_records, 0u);  // export loss actually happened
  EXPECT_FALSE(outcome.completed_tracker_ips.empty());
  EXPECT_LE(outcome.located, outcome.geo_verdicts.size());

  // Degradation is visible in the fault counters and the run report.
  std::uint64_t degraded = 0;
  for (const auto& [name, value] : outcome.fault_counters) {
    if (name.ends_with("_degraded_total")) degraded += value;
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_NE(outcome.run_report.find("\"fault\""), std::string::npos);
  EXPECT_NE(outcome.run_report.find("cbwt_fault_"), std::string::npos);

  if (const char* path = std::getenv("CBWT_FAULT_REPORT")) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << outcome.run_report;
  }
}

}  // namespace
}  // namespace cbwt::fault
