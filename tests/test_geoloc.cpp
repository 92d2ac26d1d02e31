#include "geoloc/active.h"
#include "geoloc/commercial.h"
#include "geoloc/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numbers>

#include "fault/fault.h"
#include "fault/retry.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "util/contract.h"

namespace cbwt::geoloc {
namespace {

/// The haversine as first written, both cosines taken per call: the
/// distance the refinement weights were built from before each probe's
/// cosine was kept.
double haversine_km(const geo::LatLon& a, const geo::LatLon& b) {
  const auto radians = [](double degrees) { return degrees * std::numbers::pi / 180.0; };
  const double phi1 = radians(a.lat);
  const double phi2 = radians(b.lat);
  const double dphi = radians(b.lat - a.lat);
  const double dlambda = radians(b.lon - a.lon);
  const double sin_dphi = std::sin(dphi / 2.0);
  const double sin_dlambda = std::sin(dlambda / 2.0);
  const double h =
      sin_dphi * sin_dphi + std::cos(phi1) * std::cos(phi2) * sin_dlambda * sin_dlambda;
  return 2.0 * 6371.0 * std::asin(std::min(1.0, std::sqrt(h)));
}

/// The refinement weights around `focus`, through haversine_km.
std::vector<double> reference_refine_weights(const ProbeMesh& mesh, const geo::LatLon& focus) {
  const auto& probes = mesh.probes();
  std::vector<double> weights(probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const double km = haversine_km(probes[i].location, focus);
    weights[i] = 1.0 / ((km + 50.0) * (km + 50.0));
  }
  return weights;
}

/// The uncached locate: the executable spec of ActiveGeolocator::locate,
/// which builds each focus probe's refinement table once. Every call
/// recomputes the refinement weights around the scouting winner and
/// draws the refinement panel with sample_discrete over them.
GeoEstimate reference_locate(const world::World& world, const ProbeMesh& mesh,
                             const ActiveGeolocatorOptions& options,
                             const net::IpAddress& ip, util::Rng& rng,
                             const fault::FaultPlan* fault_plan = nullptr) {
  const world::Server* server = world.find_server(ip);
  if (server == nullptr) return {};
  const auto& dc = world.datacenter(server->datacenter);
  const auto measure_rtt = [&](const Probe& probe) {
    const double propagation = 2.0 * geo::propagation_delay_ms(probe.location, dc.location);
    const double last_mile =
        rng.next_double_in(options.last_mile_ms_min, options.last_mile_ms_max);
    const double queueing = rng.next_exponential(options.queue_noise_rate);
    return propagation + last_mile + queueing;
  };

  const auto& probes = mesh.probes();
  const std::size_t panel_size =
      std::min<std::size_t>(options.probes_per_measurement, probes.size());
  const std::size_t scout_size = panel_size / 3;
  struct Sample {
    double rtt;
    const Probe* probe;
  };
  std::vector<Sample> samples;
  samples.reserve(panel_size);
  for (std::size_t i = 0; i < scout_size; ++i) {
    const auto& probe = probes[static_cast<std::size_t>(rng.next_below(probes.size()))];
    samples.push_back({measure_rtt(probe), &probe});
  }
  const auto best_scout =
      std::min_element(samples.begin(), samples.end(),
                       [](const Sample& a, const Sample& b) { return a.rtt < b.rtt; });
  const auto refine_weights = reference_refine_weights(mesh, best_scout->probe->location);
  for (std::size_t i = scout_size; i < panel_size; ++i) {
    const auto& probe = probes[util::sample_discrete(rng, refine_weights)];
    samples.push_back({measure_rtt(probe), &probe});
  }
  GeoEstimate estimate;
  const auto probe_site =
      fault::StageSite::resolve(fault_plan, fault::sites::kGeoProbe, /*registry=*/nullptr);
  if (probe_site.live()) {
    std::size_t kept = 0;
    for (std::size_t slot = 0; slot < samples.size(); ++slot) {
      const fault::FaultKind kind =
          probe_site.decide(ip.hash(), static_cast<std::uint32_t>(slot));
      if (fault::is_loss(kind)) {
        ++estimate.lost_probes;
        continue;
      }
      if (kind == fault::FaultKind::SlowResponse) {
        samples[slot].rtt += options.slow_probe_penalty_ms;
      }
      samples[kept++] = samples[slot];
    }
    samples.resize(kept);
    if (samples.size() < options.quorum) return estimate;
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.rtt < b.rtt; });

  const std::size_t voters = std::min<std::size_t>(options.voters, samples.size());
  std::map<std::string, double> votes;
  std::map<std::string, std::size_t> headcount;
  for (std::size_t i = 0; i < voters; ++i) {
    const double weight = 1.0 / std::pow(std::max(samples[i].rtt, 0.1), options.vote_falloff);
    votes[samples[i].probe->country] += weight;
    ++headcount[samples[i].probe->country];
  }
  double best = 0.0;
  for (const auto& [country, weight] : votes) {
    if (weight > best) {
      best = weight;
      estimate.country = country;
    }
  }
  estimate.country_agreement =
      voters == 0 ? 0.0
                  : static_cast<double>(headcount[estimate.country]) /
                        static_cast<double>(voters);
  estimate.min_rtt_ms = samples.empty() ? 0.0 : samples.front().rtt;
  if (const geo::Country* country = geo::find_country(estimate.country)) {
    estimate.continent = country->continent;
  }
  return estimate;
}

class GeolocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world::WorldConfig config;
    config.seed = 9001;
    config.scale = 0.01;
    config.publishers = 300;
    world_ = new world::World(world::build_world(config));
    util::Rng mesh_rng(1);
    mesh_ = new ProbeMesh(MeshConfig{}, mesh_rng);
    util::Rng db_rng(2);
    auto maxmind = build_maxmind_like(*world_, CommercialDbOptions{}, db_rng);
    auto ipapi = build_ipapi_like(*world_, maxmind, 0.93, db_rng);
    service_ = new GeoService(*world_, std::move(maxmind), std::move(ipapi), *mesh_,
                              ActiveGeolocatorOptions{}, 1234);
  }
  static void TearDownTestSuite() {
    delete service_;
    delete mesh_;
    delete world_;
  }
  static world::World* world_;
  static ProbeMesh* mesh_;
  static GeoService* service_;
};

world::World* GeolocTest::world_ = nullptr;
ProbeMesh* GeolocTest::mesh_ = nullptr;
GeoService* GeolocTest::service_ = nullptr;

TEST_F(GeolocTest, MeshIsEuropeDense) {
  std::size_t europe = 0;
  for (const auto& probe : mesh_->probes()) {
    const auto* country = geo::find_country(probe.country);
    ASSERT_NE(country, nullptr);
    if (country->continent == geo::Continent::Europe) ++europe;
  }
  EXPECT_GT(static_cast<double>(europe) / mesh_->probes().size(), 0.45);
  EXPECT_GT(mesh_->count_in("DE"), mesh_->count_in("PA"));
}

TEST_F(GeolocTest, CommercialDbIsAccurateOnEyeballs) {
  const auto block = world_->addresses().eyeball_blocks().at("DE");
  const auto located = service_->locate(block.at(12345), Tool::MaxMindLike);
  EXPECT_EQ(located, "DE");
}

TEST_F(GeolocTest, CommercialDbFilesInfraAtLegalHome) {
  // Count how often the MaxMind-like tool reports the org's HQ rather
  // than the true server country, over servers deployed abroad.
  std::size_t abroad = 0;
  std::size_t reported_hq = 0;
  for (const auto& server : world_->servers()) {
    const auto& org = world_->org(server.org);
    const auto truth = world_->datacenter(server.datacenter).country;
    if (truth == org.hq_country) continue;
    ++abroad;
    if (service_->locate(server.ip, Tool::MaxMindLike) == org.hq_country) ++reported_hq;
  }
  ASSERT_GT(abroad, 100U);
  EXPECT_GT(static_cast<double>(reported_hq) / abroad, 0.6);
}

TEST_F(GeolocTest, ActiveGeolocationIsCountryAccurate) {
  util::Rng rng(3);
  const ActiveGeolocator locator(*world_, *mesh_);
  std::size_t checked = 0;
  std::size_t country_correct = 0;
  std::size_t continent_correct = 0;
  for (const auto& server : world_->servers()) {
    if (checked >= 250) break;
    const auto truth = world_->datacenter(server.datacenter).country;
    const auto* truth_info = geo::find_country(truth);
    // Focus on Europe/US where the mesh is dense (the paper's validation
    // scope is exactly EU + US cloud ranges).
    if (truth_info->continent != geo::Continent::Europe && truth != "US") continue;
    ++checked;
    const auto estimate = locator.locate(server.ip, rng);
    if (estimate.country == truth) ++country_correct;
    if (estimate.continent == truth_info->continent) ++continent_correct;
  }
  ASSERT_EQ(checked, 250U);
  EXPECT_GT(static_cast<double>(country_correct) / checked, 0.85);
  EXPECT_GT(static_cast<double>(continent_correct) / checked, 0.97);
}

TEST_F(GeolocTest, ActiveGeolocationUnknownIpIsEmpty) {
  util::Rng rng(4);
  const ActiveGeolocator locator(*world_, *mesh_);
  const auto estimate = locator.locate(net::IpAddress::v4(1), rng);
  EXPECT_TRUE(estimate.country.empty());
}

TEST_F(GeolocTest, ServiceCachesActiveMeasurements) {
  const auto& ip = world_->servers().front().ip;
  const auto first = service_->locate(ip, Tool::ActiveIpmap);
  const auto second = service_->locate(ip, Tool::ActiveIpmap);
  EXPECT_EQ(first, second);  // measured once, cached thereafter
}

TEST_F(GeolocTest, GroundTruthToolMatchesWorld) {
  for (std::size_t i = 0; i < 50; ++i) {
    const auto& server = world_->servers()[i];
    EXPECT_EQ(service_->locate(server.ip, Tool::GroundTruth),
              world_->datacenter(server.datacenter).country);
  }
}

TEST_F(GeolocTest, PairwiseAgreementShape) {
  // Over tracker server IPs: the two commercial tools agree with each
  // other far more than either agrees with active measurement (Table 3).
  std::vector<net::IpAddress> ips;
  for (const auto& server : world_->servers()) {
    ips.push_back(server.ip);
    if (ips.size() >= 400) break;
  }
  const auto commercial = pairwise_agreement(*service_, ips, Tool::MaxMindLike,
                                             Tool::IpApiLike);
  const auto maxmind_vs_active =
      pairwise_agreement(*service_, ips, Tool::MaxMindLike, Tool::ActiveIpmap);
  EXPECT_GT(commercial.country, 0.85);
  EXPECT_LT(maxmind_vs_active.country, 0.75);
  EXPECT_GT(commercial.country, maxmind_vs_active.country + 0.15);
  // Continent agreement is always higher than country agreement.
  EXPECT_GE(commercial.continent, commercial.country - 1e-9);
}

TEST_F(GeolocTest, ActiveAgreesWithGroundTruth) {
  std::vector<net::IpAddress> ips;
  for (const auto& server : world_->servers()) {
    const auto truth = world_->datacenter(server.datacenter).country;
    const auto* info = geo::find_country(truth);
    if (info->continent == geo::Continent::Europe || truth == "US") {
      ips.push_back(server.ip);
    }
    if (ips.size() >= 300) break;
  }
  const auto agreement =
      pairwise_agreement(*service_, ips, Tool::ActiveIpmap, Tool::GroundTruth);
  EXPECT_GT(agreement.country, 0.85);
  EXPECT_GT(agreement.continent, 0.97);
}

TEST_F(GeolocTest, LegalEntityToolReportsHq) {
  for (std::size_t i = 0; i < 50; ++i) {
    const auto& server = world_->servers()[i];
    EXPECT_EQ(service_->locate(server.ip, Tool::LegalEntity),
              world_->org(server.org).hq_country);
  }
  EXPECT_TRUE(service_->locate(net::IpAddress::v4(7), Tool::LegalEntity).empty());
}

TEST_F(GeolocTest, RegionAndContinentHelpers) {
  const auto& server = world_->servers().front();
  const auto region = service_->region(server.ip, Tool::GroundTruth);
  ASSERT_TRUE(region.has_value());
  const auto continent = service_->continent(server.ip, Tool::GroundTruth);
  ASSERT_TRUE(continent.has_value());
  EXPECT_FALSE(service_->region(net::IpAddress::v4(2), Tool::GroundTruth).has_value());
}

TEST_F(GeolocTest, MoreVotersNeverHurtMuch) {
  // Property sweep: accuracy with 20 voters is within noise of 10 voters
  // (majority voting is stable), and 1 voter is noticeably worse.
  const auto accuracy_with = [&](std::uint32_t voters) {
    ActiveGeolocatorOptions options;
    options.voters = voters;
    const ActiveGeolocator locator(*world_, *mesh_, options);
    util::Rng rng(7);
    std::size_t correct = 0;
    std::size_t total = 0;
    for (const auto& server : world_->servers()) {
      const auto truth = world_->datacenter(server.datacenter).country;
      if (geo::find_country(truth)->continent != geo::Continent::Europe) continue;
      if (++total > 200) break;
      if (locator.locate(server.ip, rng).country == truth) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(total);
  };
  const double one = accuracy_with(1);
  const double ten = accuracy_with(10);
  EXPECT_GT(ten, one - 0.02);
}

TEST_F(GeolocTest, QuorumEnforcedExactlyAtThreshold) {
  // Edge case: a surviving panel of exactly `quorum` probes still votes;
  // one more required probe and the engine refuses to locate.
  fault::FaultPlan plan;
  plan.seed = 0xFA017;
  plan.default_rates.timeout = 0.15;
  plan.default_rates.error = 0.15;
  const auto& ip = world_->servers().front().ip;
  ActiveGeolocatorOptions options;
  options.quorum = 1;  // relaxed first, to learn the surviving panel size
  const auto measure = [&](const ActiveGeolocatorOptions& opts) {
    const ActiveGeolocator locator(*world_, *mesh_, opts);
    util::Rng rng(util::mix64(1234 ^ ip.hash()));
    return locator.locate(ip, rng, &plan);
  };
  const auto baseline = measure(options);
  ASSERT_FALSE(baseline.country.empty());
  ASSERT_GT(baseline.lost_probes, 0u);
  const std::uint32_t survivors =
      options.probes_per_measurement - baseline.lost_probes;

  options.quorum = survivors;  // exactly at threshold: the verdict stands
  const auto at_quorum = measure(options);
  EXPECT_EQ(at_quorum.country, baseline.country);
  EXPECT_EQ(at_quorum.lost_probes, baseline.lost_probes);

  options.quorum = survivors + 1;  // one short: unlocated, losses reported
  const auto below_quorum = measure(options);
  EXPECT_TRUE(below_quorum.country.empty());
  EXPECT_EQ(below_quorum.lost_probes, baseline.lost_probes);
}

TEST_F(GeolocTest, AllProbesLostYieldsUnlocated) {
  fault::FaultPlan plan;
  plan.default_rates.error = 1.0;
  const ActiveGeolocator locator(*world_, *mesh_);
  const auto& ip = world_->servers().front().ip;
  util::Rng rng(5);
  const auto estimate = locator.locate(ip, rng, &plan);
  EXPECT_TRUE(estimate.country.empty());
  EXPECT_EQ(estimate.lost_probes, ActiveGeolocatorOptions{}.probes_per_measurement);
}

TEST_F(GeolocTest, PrefetchUnderFaultsCountsEachMissOnce) {
  // Regression: a measurement exhausted by injected faults is cached as
  // unlocated like any other verdict, so repeated prefetches and lookups
  // must never re-measure it or count a second cache miss.
  obs::Registry registry;
  fault::FaultPlan plan;
  plan.seed = 77;
  plan.site_rates["geoloc_measure"] = {.error = 0.8};
  util::Rng db_rng(2);
  auto maxmind = build_maxmind_like(*world_, CommercialDbOptions{}, db_rng);
  auto ipapi = build_ipapi_like(*world_, maxmind, 0.93, db_rng);
  const GeoService service(*world_, std::move(maxmind), std::move(ipapi), *mesh_,
                           ActiveGeolocatorOptions{}, 1234, nullptr, &registry, &plan);
  std::vector<net::IpAddress> ips;
  for (const auto& server : world_->servers()) {
    ips.push_back(server.ip);
    if (ips.size() >= 40) break;
  }
  service.prefetch(ips);
  // The plan exhausted some measurements and each one degraded to an
  // unlocated verdict — and only those did.
  const auto degraded =
      registry.counter_value("cbwt_fault_geoloc_measure_degraded_total");
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(registry.counter_value("cbwt_geoloc_unlocated_total"), degraded);

  // The prefetch measured every IP, so each one missed the cache once.
  const auto misses = registry.counter_value("cbwt_geoloc_cache_misses_total");
  EXPECT_EQ(misses, ips.size());
  const auto batches = registry.counter_value("cbwt_geoloc_probe_batches_total");
  service.prefetch(ips);
  for (const auto& ip : ips) (void)service.locate(ip, Tool::ActiveIpmap);
  EXPECT_EQ(registry.counter_value("cbwt_geoloc_cache_misses_total"), misses);
  EXPECT_EQ(registry.counter_value("cbwt_geoloc_probe_batches_total"), batches);
  EXPECT_EQ(registry.counter_value("cbwt_geoloc_unlocated_total"), degraded);
  EXPECT_EQ(registry.counter_value("cbwt_geoloc_cache_hits_total"), ips.size());
}

TEST_F(GeolocTest, LocateMatchesTheUncachedReference) {
  // Every fixture server, fault-free and under a live geoloc_probe plan
  // (losses and slow probes): the same estimate, field for field and
  // bit for bit, and the same rng state after every call. One locator
  // serves both passes, so the second runs on warm tables.
  fault::FaultPlan plan;
  plan.seed = 0x9E0;
  plan.site_rates[std::string(fault::sites::kGeoProbe)] = {
      .timeout = 0.1, .error = 0.05, .slow = 0.1};
  const ActiveGeolocatorOptions options;
  const ActiveGeolocator locator(*world_, *mesh_, options);
  const std::vector<const fault::FaultPlan*> plans = {nullptr, &plan};
  for (const fault::FaultPlan* faults : plans) {
    SCOPED_TRACE(faults == nullptr ? "fault-free" : "geoloc_probe faults");
    std::uint32_t lost = 0;
    for (const auto& server : world_->servers()) {
      util::Rng want_rng(util::mix64(1234 ^ server.ip.hash()));
      util::Rng got_rng = want_rng;
      const auto want =
          reference_locate(*world_, *mesh_, options, server.ip, want_rng, faults);
      const auto got = locator.locate(server.ip, got_rng, faults);
      const auto where = server.ip.to_string();
      ASSERT_EQ(got.country, want.country) << where;
      ASSERT_EQ(got.continent, want.continent) << where;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.country_agreement),
                std::bit_cast<std::uint64_t>(want.country_agreement))
          << where;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.min_rtt_ms),
                std::bit_cast<std::uint64_t>(want.min_rtt_ms))
          << where;
      ASSERT_EQ(got.lost_probes, want.lost_probes) << where;
      ASSERT_EQ(got_rng(), want_rng()) << where;
      lost += got.lost_probes;
    }
    EXPECT_EQ(lost > 0, faults != nullptr);
  }
  // Tables exist only for probes that won a scouting round.
  EXPECT_GT(locator.refine_tables(), 0U);
  EXPECT_LT(locator.refine_tables(), mesh_->probes().size());
}

TEST_F(GeolocTest, EveryRefinementTableIsTheHaversineOne) {
  // Every focus of the 1,100-probe mesh, not only those a fixture server
  // reaches: the weights from the probes' kept cosines are the per-call
  // haversine's, bit for bit, so each table draws as before.
  ASSERT_EQ(mesh_->probes().size(), MeshConfig{}.probes);
  const ActiveGeolocator locator(*world_, *mesh_);
  for (std::size_t focus = 0; focus < mesh_->probes().size(); ++focus) {
    const auto got = locator.refine_weights(focus);
    const auto want = reference_refine_weights(*mesh_, mesh_->probes()[focus].location);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
          << "focus " << focus << " probe " << i;
    }
  }
}

TEST_F(GeolocTest, PanelWithoutAScoutIsRejected) {
  // Below three probes the panel has no scouting round, so no focus probe
  // to refine around.
  const util::ContractPolicy saved = util::contract_policy();
  util::set_contract_policy(util::ContractPolicy::Throw);
  ActiveGeolocatorOptions options;
  options.probes_per_measurement = 2;
  EXPECT_THROW(ActiveGeolocator(*world_, *mesh_, options), util::ContractViolation);
  options.probes_per_measurement = 3;
  EXPECT_NO_THROW(ActiveGeolocator(*world_, *mesh_, options));
  util::set_contract_policy(saved);
}

TEST_F(GeolocTest, PrefetchOpensOneSpanPerMeasuredBatch) {
  obs::Registry registry;
  util::Rng db_rng(2);
  auto maxmind = build_maxmind_like(*world_, CommercialDbOptions{}, db_rng);
  auto ipapi = build_ipapi_like(*world_, maxmind, 0.93, db_rng);
  const GeoService service(*world_, std::move(maxmind), std::move(ipapi), *mesh_,
                           ActiveGeolocatorOptions{}, 1234, nullptr, &registry);
  std::vector<net::IpAddress> ips;
  for (const auto& server : world_->servers()) {
    ips.push_back(server.ip);
    if (ips.size() >= 30) break;
  }
  service.prefetch(std::span(ips).first(20));
  service.prefetch(ips);  // measures only the last 10
  service.prefetch(ips);  // all cached: no batch, no span
  std::vector<std::uint64_t> items;
  for (const auto& span : registry.spans()) {
    if (span.name == "geoloc/prefetch") items.push_back(span.items);
  }
  EXPECT_EQ(items, (std::vector<std::uint64_t>{20, 10}));
  EXPECT_EQ(registry.counter_value("cbwt_geoloc_probe_batch_ips_total"), 30U);
  EXPECT_GT(service.refine_tables(), 0U);
}

TEST(GeoServiceThreads, ColdPrefetchMatchesSerial) {
  // Four pool workers measure a cold service's IPs, so they race to
  // build and publish the same focus probes' refinement tables (popular
  // foci such as the Frankfurt hub win many scouting rounds). Every
  // verdict must equal a serial service's, and each focus keeps one
  // table however many workers built it.
  world::WorldConfig config;
  config.seed = 9002;
  config.scale = 0.01;
  config.publishers = 300;
  const world::World world = world::build_world(config);
  util::Rng mesh_rng(1);
  const ProbeMesh mesh(MeshConfig{}, mesh_rng);
  const auto make_service = [&](runtime::ThreadPool* pool) {
    util::Rng db_rng(2);
    auto maxmind = build_maxmind_like(world, CommercialDbOptions{}, db_rng);
    auto ipapi = build_ipapi_like(world, maxmind, 0.93, db_rng);
    return std::make_unique<GeoService>(world, std::move(maxmind), std::move(ipapi), mesh,
                                        ActiveGeolocatorOptions{}, 77, pool);
  };
  std::vector<net::IpAddress> ips;
  for (const auto& server : world.servers()) {
    ips.push_back(server.ip);
    if (ips.size() >= 600) break;
  }
  const auto serial = make_service(nullptr);
  runtime::ThreadPool pool(4);
  const auto shared = make_service(&pool);
  ASSERT_EQ(shared->refine_tables(), 0U);
  shared->prefetch(ips);
  for (const auto& ip : ips) {
    ASSERT_EQ(shared->locate(ip, Tool::ActiveIpmap), serial->locate(ip, Tool::ActiveIpmap))
        << ip.to_string();
  }
  EXPECT_EQ(shared->refine_tables(), serial->refine_tables());
  EXPECT_LE(shared->refine_tables(), mesh.probes().size());
}

TEST(CommercialDb, EmptyLocatesNothing) {
  CommercialDb db;
  EXPECT_FALSE(db.locate(net::IpAddress::v4(1)).has_value());
  db.add_prefix(*net::IpPrefix::parse("10.0.0.0/8"), "DE");
  db.add_ip(*net::IpAddress::parse("10.1.2.3"), "FR");
  // Longest prefix wins: the host entry overrides the block.
  EXPECT_EQ(db.locate(*net::IpAddress::parse("10.1.2.3")).value(), "FR");
  EXPECT_EQ(db.locate(*net::IpAddress::parse("10.9.9.9")).value(), "DE");
}

TEST(GeoTool, ToStringCoversAll) {
  EXPECT_EQ(to_string(Tool::GroundTruth), "ground-truth");
  EXPECT_EQ(to_string(Tool::MaxMindLike), "maxmind-like");
  EXPECT_EQ(to_string(Tool::IpApiLike), "ip-api-like");
  EXPECT_EQ(to_string(Tool::ActiveIpmap), "ipmap-like");
  EXPECT_EQ(to_string(Tool::LegalEntity), "legal-entity");
}

}  // namespace
}  // namespace cbwt::geoloc
