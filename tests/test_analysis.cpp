#include "analysis/flows.h"
#include "analysis/jurisdiction.h"

#include <gtest/gtest.h>

#include <bit>

#include "core/study.h"
#include "geo/country.h"

namespace cbwt::analysis {
namespace {

/// Fixture with a tiny world and a GeoService whose ground-truth tool we
/// use to make flow destinations fully controllable.
class AnalysisTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world::WorldConfig config;
    config.seed = 1212;
    config.scale = 0.01;
    config.publishers = 200;
    world_ = new world::World(world::build_world(config));
    util::Rng mesh_rng(1);
    mesh_ = new geoloc::ProbeMesh(geoloc::MeshConfig{}, mesh_rng);
    util::Rng db_rng(2);
    auto maxmind = geoloc::build_maxmind_like(*world_, {}, db_rng);
    auto ipapi = geoloc::build_ipapi_like(*world_, maxmind, 0.93, db_rng);
    service_ = new geoloc::GeoService(*world_, std::move(maxmind), std::move(ipapi),
                                      *mesh_, {}, 99);
  }
  static void TearDownTestSuite() {
    delete service_;
    delete mesh_;
    delete world_;
  }

  /// First server IP found in the given country; asserts existence.
  static net::IpAddress server_in(const std::string& country) {
    for (const auto& server : world_->servers()) {
      if (world_->datacenter(server.datacenter).country == country) return server.ip;
    }
    ADD_FAILURE() << "no server in " << country;
    return {};
  }

  static world::World* world_;
  static geoloc::ProbeMesh* mesh_;
  static geoloc::GeoService* service_;
};

world::World* AnalysisTest::world_ = nullptr;
geoloc::ProbeMesh* AnalysisTest::mesh_ = nullptr;
geoloc::GeoService* AnalysisTest::service_ = nullptr;

// --- executable spec -----------------------------------------------------
// FlowAnalyzer's aggregations as they read with one lookup per flow: the
// verdict string of every flow's destination, mapped to a region or a
// continent through the registry each time. The analyzer must give the
// same numbers, bit for bit.

struct ReferenceAnalyzer {
  const geoloc::GeoService* service;
  geoloc::Tool tool;

  [[nodiscard]] RegionBreakdown destination_regions(std::span<const Flow> flows) const {
    RegionBreakdown breakdown;
    std::map<geo::Region, std::uint64_t> weights;
    for (const auto& flow : flows) {
      const auto region = service->region(flow.destination, tool);
      if (!region) {
        breakdown.unknown += flow.weight;
        continue;
      }
      weights[*region] += flow.weight;
      breakdown.located += flow.weight;
    }
    for (const auto& [region, weight] : weights) {
      breakdown.share[region] =
          static_cast<double>(weight) / static_cast<double>(breakdown.located);
    }
    return breakdown;
  }

  [[nodiscard]] std::map<std::string, std::map<std::string, std::uint64_t>> country_matrix(
      std::span<const Flow> flows) const {
    std::map<std::string, std::map<std::string, std::uint64_t>> matrix;
    for (const auto& flow : flows) {
      auto destination = service->locate(flow.destination, tool);
      if (destination.empty()) destination = "unknown";
      matrix[flow.origin_country][destination] += flow.weight;
    }
    return matrix;
  }

  [[nodiscard]] std::map<std::string, std::map<std::string, std::uint64_t>> region_matrix(
      std::span<const Flow> flows) const {
    std::map<std::string, std::map<std::string, std::uint64_t>> matrix;
    for (const auto& flow : flows) {
      const auto origin_region = geo::region_of_code(flow.origin_country);
      const auto dest_region = service->region(flow.destination, tool);
      const std::string origin =
          origin_region ? std::string(geo::to_string(*origin_region)) : "unknown";
      const std::string destination =
          dest_region ? std::string(geo::to_string(*dest_region)) : "unknown";
      matrix[origin][destination] += flow.weight;
    }
    return matrix;
  }

  [[nodiscard]] Confinement confinement(std::span<const Flow> flows) const {
    Confinement result;
    std::uint64_t in_country = 0;
    std::uint64_t in_eu28 = 0;
    std::uint64_t in_continent = 0;
    for (const auto& flow : flows) {
      result.total += flow.weight;
      const auto destination = service->locate(flow.destination, tool);
      if (destination.empty()) continue;
      if (destination == flow.origin_country) in_country += flow.weight;
      const geo::Country* dest = geo::find_country(destination);
      const geo::Country* origin = geo::find_country(flow.origin_country);
      if (dest != nullptr && dest->eu28) in_eu28 += flow.weight;
      if (dest != nullptr && origin != nullptr && dest->continent == origin->continent) {
        in_continent += flow.weight;
      }
    }
    if (result.total > 0) {
      const auto total = static_cast<double>(result.total);
      result.in_country = 100.0 * static_cast<double>(in_country) / total;
      result.in_eu28 = 100.0 * static_cast<double>(in_eu28) / total;
      result.in_continent = 100.0 * static_cast<double>(in_continent) / total;
    }
    return result;
  }

  [[nodiscard]] std::map<std::string, Confinement> per_origin_confinement(
      std::span<const Flow> flows) const {
    std::map<std::string, std::vector<Flow>> by_origin;
    for (const auto& flow : flows) by_origin[flow.origin_country].push_back(flow);
    std::map<std::string, Confinement> out;
    for (const auto& [origin, subset] : by_origin) out[origin] = confinement(subset);
    return out;
  }

  [[nodiscard]] std::map<std::string, double> destination_countries(
      std::span<const Flow> flows) const {
    std::map<std::string, std::uint64_t> weights;
    std::uint64_t total = 0;
    for (const auto& flow : flows) {
      auto destination = service->locate(flow.destination, tool);
      if (destination.empty()) destination = "unknown";
      weights[destination] += flow.weight;
      total += flow.weight;
    }
    std::map<std::string, double> shares;
    for (const auto& [country, weight] : weights) {
      shares[country] =
          total == 0 ? 0.0 : static_cast<double>(weight) / static_cast<double>(total);
    }
    return shares;
  }
};

/// Bit equality: the same double, not merely a close one.
void expect_same_double(double actual, double expected, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual), std::bit_cast<std::uint64_t>(expected))
      << what << ": " << actual << " vs " << expected;
}

void expect_same_confinement(const Confinement& actual, const Confinement& expected,
                             const std::string& what) {
  EXPECT_EQ(actual.total, expected.total) << what;
  expect_same_double(actual.in_country, expected.in_country, what + " in_country");
  expect_same_double(actual.in_eu28, expected.in_eu28, what + " in_eu28");
  expect_same_double(actual.in_continent, expected.in_continent, what + " in_continent");
}

/// All five aggregations (and the per-origin split) against the spec.
void expect_matches_reference(const geoloc::GeoService& service, geoloc::Tool tool,
                              std::span<const Flow> flows) {
  SCOPED_TRACE(std::string(geoloc::to_string(tool)));
  const FlowAnalyzer analyzer(service, tool);
  const ReferenceAnalyzer reference{&service, tool};

  const auto regions = analyzer.destination_regions(flows);
  const auto expected_regions = reference.destination_regions(flows);
  EXPECT_EQ(regions.located, expected_regions.located);
  EXPECT_EQ(regions.unknown, expected_regions.unknown);
  ASSERT_EQ(regions.share.size(), expected_regions.share.size());
  for (const auto& [region, share] : expected_regions.share) {
    expect_same_double(regions.share.at(region), share, std::string(geo::to_string(region)));
  }

  EXPECT_EQ(analyzer.country_matrix(flows), reference.country_matrix(flows));
  EXPECT_EQ(analyzer.region_matrix(flows), reference.region_matrix(flows));
  expect_same_confinement(analyzer.confinement(flows), reference.confinement(flows), "all");

  const auto per_origin = analyzer.per_origin_confinement(flows);
  const auto expected_per_origin = reference.per_origin_confinement(flows);
  ASSERT_EQ(per_origin.size(), expected_per_origin.size());
  for (const auto& [origin, confinement] : expected_per_origin) {
    ASSERT_TRUE(per_origin.contains(origin)) << origin;
    expect_same_confinement(per_origin.at(origin), confinement, origin);
  }

  const auto shares = analyzer.destination_countries(flows);
  const auto expected_shares = reference.destination_countries(flows);
  ASSERT_EQ(shares.size(), expected_shares.size());
  for (const auto& [country, share] : expected_shares) {
    ASSERT_TRUE(shares.contains(country)) << country;
    expect_same_double(shares.at(country), share, country);
  }
}

constexpr geoloc::Tool kTools[] = {geoloc::Tool::ActiveIpmap, geoloc::Tool::MaxMindLike,
                                   geoloc::Tool::IpApiLike, geoloc::Tool::GroundTruth,
                                   geoloc::Tool::LegalEntity};

TEST_F(AnalysisTest, ConfinementMath) {
  const FlowAnalyzer analyzer(*service_, geoloc::Tool::GroundTruth);
  std::vector<Flow> flows;
  flows.push_back({"DE", server_in("DE"), 2});   // in-country, EU, continent
  flows.push_back({"DE", server_in("NL"), 1});   // EU, continent
  flows.push_back({"DE", server_in("US"), 1});   // neither
  const auto result = analyzer.confinement(flows);
  EXPECT_EQ(result.total, 4U);
  EXPECT_DOUBLE_EQ(result.in_country, 50.0);
  EXPECT_DOUBLE_EQ(result.in_eu28, 75.0);
  EXPECT_DOUBLE_EQ(result.in_continent, 75.0);
}

TEST_F(AnalysisTest, ContinentConfinementCountsNonEuEurope) {
  const FlowAnalyzer analyzer(*service_, geoloc::Tool::GroundTruth);
  std::vector<Flow> flows;
  flows.push_back({"DE", server_in("CH"), 1});  // Europe but not EU28
  const auto result = analyzer.confinement(flows);
  EXPECT_DOUBLE_EQ(result.in_eu28, 0.0);
  EXPECT_DOUBLE_EQ(result.in_continent, 100.0);
}

TEST_F(AnalysisTest, EmptyFlowsAreSafe) {
  const FlowAnalyzer analyzer(*service_, geoloc::Tool::GroundTruth);
  const std::vector<Flow> none;
  const auto result = analyzer.confinement(none);
  EXPECT_EQ(result.total, 0U);
  EXPECT_DOUBLE_EQ(result.in_country, 0.0);
  EXPECT_TRUE(analyzer.destination_regions(none).share.empty());
}

TEST_F(AnalysisTest, DestinationRegionsSumToOne) {
  const FlowAnalyzer analyzer(*service_, geoloc::Tool::GroundTruth);
  std::vector<Flow> flows;
  flows.push_back({"DE", server_in("DE"), 3});
  flows.push_back({"DE", server_in("US"), 2});
  flows.push_back({"DE", server_in("JP"), 1});
  const auto breakdown = analyzer.destination_regions(flows);
  EXPECT_EQ(breakdown.located, 6U);
  EXPECT_EQ(breakdown.unknown, 0U);
  double total = 0.0;
  for (const auto& [region, share] : breakdown.share) total += share;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(breakdown.share.at(geo::Region::EU28), 0.5, 1e-9);
  EXPECT_NEAR(breakdown.share.at(geo::Region::NorthAmerica), 1.0 / 3.0, 1e-9);
}

TEST_F(AnalysisTest, UnknownDestinationsAreTracked) {
  const FlowAnalyzer analyzer(*service_, geoloc::Tool::GroundTruth);
  std::vector<Flow> flows;
  flows.push_back({"DE", net::IpAddress::v4(123), 5});  // not a server
  const auto breakdown = analyzer.destination_regions(flows);
  EXPECT_EQ(breakdown.unknown, 5U);
  EXPECT_EQ(breakdown.located, 0U);
}

TEST_F(AnalysisTest, CountryMatrixAggregatesWeights) {
  const FlowAnalyzer analyzer(*service_, geoloc::Tool::GroundTruth);
  std::vector<Flow> flows;
  flows.push_back({"ES", server_in("US"), 2});
  flows.push_back({"ES", server_in("US"), 3});
  flows.push_back({"FR", server_in("DE"), 1});
  const auto matrix = analyzer.country_matrix(flows);
  EXPECT_EQ(matrix.at("ES").at("US"), 5U);
  EXPECT_EQ(matrix.at("FR").at("DE"), 1U);
}

TEST_F(AnalysisTest, RegionMatrixUsesRegionNames) {
  const FlowAnalyzer analyzer(*service_, geoloc::Tool::GroundTruth);
  std::vector<Flow> flows;
  flows.push_back({"BR", server_in("US"), 7});
  const auto matrix = analyzer.region_matrix(flows);
  EXPECT_EQ(matrix.at("S. America").at("N. America"), 7U);
}

TEST_F(AnalysisTest, PerOriginConfinement) {
  const FlowAnalyzer analyzer(*service_, geoloc::Tool::GroundTruth);
  std::vector<Flow> flows;
  flows.push_back({"DE", server_in("DE"), 1});
  flows.push_back({"FR", server_in("DE"), 1});
  const auto by_origin = analyzer.per_origin_confinement(flows);
  EXPECT_DOUBLE_EQ(by_origin.at("DE").in_country, 100.0);
  EXPECT_DOUBLE_EQ(by_origin.at("FR").in_country, 0.0);
  EXPECT_DOUBLE_EQ(by_origin.at("FR").in_eu28, 100.0);
}

TEST_F(AnalysisTest, DestinationCountrySharesSumToOne) {
  const FlowAnalyzer analyzer(*service_, geoloc::Tool::GroundTruth);
  std::vector<Flow> flows;
  flows.push_back({"PL", server_in("NL"), 4});
  flows.push_back({"PL", server_in("US"), 4});
  const auto shares = analyzer.destination_countries(flows);
  EXPECT_DOUBLE_EQ(shares.at("NL"), 0.5);
  EXPECT_DOUBLE_EQ(shares.at("US"), 0.5);
}

TEST_F(AnalysisTest, RegionAndCountryFilters) {
  std::vector<Flow> flows;
  flows.push_back({"DE", server_in("US"), 1});
  flows.push_back({"BR", server_in("US"), 1});
  flows.push_back({"CH", server_in("US"), 1});
  const auto eu = flows_from_region(flows, geo::Region::EU28);
  ASSERT_EQ(eu.size(), 1U);
  EXPECT_EQ(eu[0].origin_country, "DE");
  const auto rest = flows_from_region(flows, geo::Region::RestOfEurope);
  ASSERT_EQ(rest.size(), 1U);
  EXPECT_EQ(rest[0].origin_country, "CH");
}

TEST_F(AnalysisTest, ToolChoiceChangesTheAnswer) {
  // The same flow set under MaxMind-like vs ground truth can disagree —
  // that is the paper's Fig. 7 in miniature. Use a US-HQ org's EU server.
  const world::Server* eu_server_of_us_org = nullptr;
  for (const auto& server : world_->servers()) {
    const auto& org = world_->org(server.org);
    const auto truth = world_->datacenter(server.datacenter).country;
    if (org.hq_country == "US" && truth == "DE" &&
        service_->locate(server.ip, geoloc::Tool::MaxMindLike) == "US") {
      eu_server_of_us_org = &server;
      break;
    }
  }
  ASSERT_NE(eu_server_of_us_org, nullptr);
  std::vector<Flow> flows;
  flows.push_back({"DE", eu_server_of_us_org->ip, 1});
  const FlowAnalyzer truth_analyzer(*service_, geoloc::Tool::GroundTruth);
  const FlowAnalyzer maxmind_analyzer(*service_, geoloc::Tool::MaxMindLike);
  EXPECT_DOUBLE_EQ(truth_analyzer.confinement(flows).in_eu28, 100.0);
  EXPECT_DOUBLE_EQ(maxmind_analyzer.confinement(flows).in_eu28, 0.0);
}

TEST_F(AnalysisTest, JurisdictionBuilders) {
  const auto gdpr = gdpr_jurisdiction();
  EXPECT_EQ(gdpr.members.size(), 28U);
  EXPECT_TRUE(gdpr.contains("DE"));
  EXPECT_TRUE(gdpr.contains("GB"));  // 2018 scope includes the UK
  EXPECT_FALSE(gdpr.contains("CH"));
  const auto eea = eea_plus_jurisdiction();
  EXPECT_EQ(eea.members.size(), 30U);
  EXPECT_TRUE(eea.contains("CH"));
  const auto national = national_jurisdiction("FR");
  EXPECT_TRUE(national.contains("FR"));
  EXPECT_FALSE(national.contains("DE"));
  EXPECT_TRUE(us_jurisdiction().contains("US"));
}

TEST_F(AnalysisTest, JurisdictionConfinementMath) {
  std::vector<Flow> flows;
  flows.push_back({"DE", server_in("NL"), 2});  // inside GDPR, covered
  flows.push_back({"DE", server_in("US"), 1});  // from inside, leaks
  flows.push_back({"US", server_in("DE"), 1});  // into GDPR from outside
  const auto report = jurisdiction_confinement(*service_, geoloc::Tool::GroundTruth,
                                               gdpr_jurisdiction(), flows);
  EXPECT_EQ(report.total, 4U);
  EXPECT_EQ(report.inside, 3U);        // NL x2 + DE
  EXPECT_EQ(report.from_inside, 3U);   // the DE-origin flows
  EXPECT_EQ(report.covered, 2U);       // DE->NL only
  EXPECT_DOUBLE_EQ(report.inside_pct(), 75.0);
  EXPECT_NEAR(report.covered_pct(), 100.0 * 2.0 / 3.0, 1e-9);
}

TEST_F(AnalysisTest, WiderJurisdictionNeverCoversLess) {
  std::vector<Flow> flows;
  flows.push_back({"DE", server_in("CH"), 3});
  flows.push_back({"DE", server_in("NL"), 3});
  flows.push_back({"DE", server_in("US"), 1});
  const auto gdpr = jurisdiction_confinement(*service_, geoloc::Tool::GroundTruth,
                                             gdpr_jurisdiction(), flows);
  const auto eea = jurisdiction_confinement(*service_, geoloc::Tool::GroundTruth,
                                            eea_plus_jurisdiction(), flows);
  EXPECT_GE(eea.covered, gdpr.covered);
  EXPECT_GE(eea.inside, gdpr.inside);
}

TEST_F(AnalysisTest, HandBuiltFlowsMatchReference) {
  std::vector<Flow> flows;
  flows.push_back({"DE", server_in("DE"), 2});            // stays in its origin country
  flows.push_back({"DE", server_in("NL"), 1});            // EU28, same continent
  flows.push_back({"DE", server_in("CH"), 4});            // Europe outside EU28
  flows.push_back({"BR", server_in("US"), 3});            // a non-EU28 origin
  flows.push_back({"DE", net::IpAddress::v4(123), 5});    // unlocated
  flows.push_back({"XX", server_in("DE"), 1});            // an origin outside the registry
  flows.push_back({"FR", server_in("DE"), 0});            // a zero weight
  flows.push_back({"DE", server_in("DE"), 2});            // a repeated destination
  for (const auto tool : kTools) expect_matches_reference(*service_, tool, flows);
  expect_matches_reference(*service_, geoloc::Tool::GroundTruth, std::span<const Flow>{});
}

TEST_F(AnalysisTest, LocateDestinationsLooksUpEachRegistryCountry) {
  const std::vector<net::IpAddress> ips = {server_in("DE"), net::IpAddress::v4(123),
                                           server_in("US"), server_in("DE")};
  const auto located = locate_destinations(*service_, geoloc::Tool::GroundTruth, ips);
  ASSERT_EQ(located.size(), ips.size());
  ASSERT_NE(located[0], nullptr);
  EXPECT_EQ(located[0]->code, "DE");
  EXPECT_EQ(located[1], nullptr);
  ASSERT_NE(located[2], nullptr);
  EXPECT_EQ(located[2]->code, "US");
  EXPECT_EQ(located[3], located[0]);
}

/// Study datasets at two seeds, every tool: the analyzer's figures
/// equal the per-flow spec's, and every non-empty verdict a tool gives on
/// the world's servers is a registry code.
class AnalysisStudySpec : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalysisStudySpec, AggregationsMatchReference) {
  core::StudyConfig config;
  config.world.seed = GetParam();
  config.world.scale = 0.01;
  core::Study study(config);
  const auto& flows = study.flows();
  ASSERT_FALSE(flows.empty());
  for (const auto tool : kTools) expect_matches_reference(study.geo(), tool, flows);
}

TEST_P(AnalysisStudySpec, EveryVerdictIsARegistryCode) {
  core::StudyConfig config;
  config.world.seed = GetParam();
  config.world.scale = 0.01;
  core::Study study(config);
  const auto& world = study.world();
  std::vector<net::IpAddress> ips;
  for (const auto& server : world.servers()) ips.push_back(server.ip);
  study.geo().prefetch(ips);
  for (const auto tool : kTools) {
    std::size_t located = 0;
    for (const auto& ip : ips) {
      const auto verdict = study.geo().locate(ip, tool);
      if (verdict.empty()) continue;
      ++located;
      EXPECT_NE(geo::find_country(verdict), nullptr)
          << geoloc::to_string(tool) << " verdict " << verdict << " for " << ip.to_string();
    }
    EXPECT_GT(located, ips.size() / 2) << geoloc::to_string(tool);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisStudySpec, ::testing::Values(3, 11));

}  // namespace
}  // namespace cbwt::analysis
