#include "analysis/flows.h"
#include "analysis/jurisdiction.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace cbwt::analysis
