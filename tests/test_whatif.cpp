#include "whatif/localization.h"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "core/study.h"
#include "geo/country.h"

namespace cbwt::whatif {
namespace {

/// One shared small Study for all localization tests (expensive to set up).
class WhatIfTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::StudyConfig config;
    config.world.seed = 321;
    config.world.scale = 0.02;
    study_ = new core::Study(config);
    (void)study_->localization();
  }
  static void TearDownTestSuite() { delete study_; }
  static core::Study* study_;
};

core::Study* WhatIfTest::study_ = nullptr;

// --- executable spec -----------------------------------------------------
// The string-keyed localization study: one verdict string per flow, the
// per-FQDN / per-registrable / per-cloud country sets as std::set, and a
// registry lookup per continent test. LocalizationStudy must give the
// same numbers, bit for bit.

std::string continent_of(const std::string& country_code) {
  const geo::Country* country = geo::find_country(country_code);
  return country == nullptr ? std::string{} : std::string(geo::to_string(country->continent));
}

bool set_has_continent(const std::set<std::string>& countries, const std::string& continent) {
  for (const auto& code : countries) {
    if (continent_of(code) == continent) return true;
  }
  return false;
}

class ReferenceLocalization {
 public:
  ReferenceLocalization(const world::World& world, const geoloc::GeoService& service,
                        geoloc::Tool tool)
      : world_(&world), service_(&service), tool_(tool) {
    for (const auto& cloud : world.clouds()) {
      auto& countries = cloud_countries_[cloud.id];
      for (const auto pop : cloud.pops) {
        countries.insert(world.datacenter(pop).country);
        all_cloud_countries_.insert(world.datacenter(pop).country);
      }
    }
  }

  void load(const browser::ExtensionDataset& dataset,
            const std::vector<classify::Outcome>& outcomes) {
    for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
      if (!classify::is_tracking(outcomes[i].method)) continue;
      const auto& request = dataset.requests[i];
      const auto& user = world_->users().at(request.user);
      const geo::Country* origin = geo::find_country(user.country);
      if (origin == nullptr || !origin->eu28) continue;
      Flow flow;
      flow.origin = user.country;
      flow.origin_continent = std::string(geo::to_string(origin->continent));
      flow.destination = service_->locate(request.server_ip, tool_);
      flow.destination_continent = continent_of(flow.destination);
      flow.domain = request.domain;
      flows_.push_back(flow);
      const auto& domain = world_->domain(request.domain);
      if (!flow.destination.empty()) {
        countries_by_fqdn_[domain.fqdn].insert(flow.destination);
        countries_by_registrable_[domain.registrable].insert(flow.destination);
      }
    }
  }

  [[nodiscard]] LocalizationResult evaluate(Scenario scenario) const {
    LocalizationResult result;
    std::uint64_t in_country = 0;
    std::uint64_t in_continent = 0;
    for (const auto& flow : flows_) {
      ++result.total;
      if (confines_to_country(flow, scenario)) ++in_country;
      if (confines_to_continent(flow, scenario)) ++in_continent;
    }
    if (result.total > 0) {
      result.in_country_pct =
          100.0 * static_cast<double>(in_country) / static_cast<double>(result.total);
      result.in_continent_pct =
          100.0 * static_cast<double>(in_continent) / static_cast<double>(result.total);
    }
    return result;
  }

  [[nodiscard]] std::map<std::string, LocalizationResult> evaluate_per_country(
      Scenario scenario) const {
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> tallies;
    std::map<std::string, std::uint64_t> in_continent;
    for (const auto& flow : flows_) {
      auto& tally = tallies[flow.origin];
      ++tally.first;
      if (confines_to_country(flow, scenario)) ++tally.second;
      if (confines_to_continent(flow, scenario)) ++in_continent[flow.origin];
    }
    std::map<std::string, LocalizationResult> out;
    for (const auto& [country, tally] : tallies) {
      LocalizationResult result;
      result.total = tally.first;
      result.in_country_pct =
          100.0 * static_cast<double>(tally.second) / static_cast<double>(tally.first);
      result.in_continent_pct = 100.0 * static_cast<double>(in_continent[country]) /
                                static_cast<double>(tally.first);
      out[country] = result;
    }
    return out;
  }

  [[nodiscard]] std::map<std::string, double> improvement_per_country(
      Scenario baseline, Scenario scenario) const {
    const auto base = evaluate_per_country(baseline);
    const auto improved = evaluate_per_country(scenario);
    std::map<std::string, double> out;
    for (const auto& [country, result] : improved) {
      const auto it = base.find(country);
      const double baseline_pct = it == base.end() ? 0.0 : it->second.in_country_pct;
      out[country] = result.in_country_pct - baseline_pct;
    }
    return out;
  }

  [[nodiscard]] std::size_t flow_count() const noexcept { return flows_.size(); }

 private:
  struct Flow {
    std::string origin;
    std::string origin_continent;
    std::string destination;
    std::string destination_continent;
    world::DomainId domain = 0;
  };

  [[nodiscard]] const std::set<std::string>* alternatives(const Flow& flow,
                                                          Scenario scenario) const {
    const auto& domain = world_->domain(flow.domain);
    switch (scenario) {
      case Scenario::Default:
        return nullptr;
      case Scenario::RedirectFqdn: {
        const auto it = countries_by_fqdn_.find(domain.fqdn);
        return it == countries_by_fqdn_.end() ? nullptr : &it->second;
      }
      case Scenario::RedirectTld:
      case Scenario::RedirectTldPlusMirroring: {
        const auto it = countries_by_registrable_.find(domain.registrable);
        return it == countries_by_registrable_.end() ? nullptr : &it->second;
      }
      case Scenario::PopMirroring: {
        const auto& org = world_->org(domain.org);
        if (org.cloud == world::kNoCloud) return nullptr;
        const auto it = cloud_countries_.find(org.cloud);
        return it == cloud_countries_.end() ? nullptr : &it->second;
      }
      case Scenario::CloudMigration:
        return &all_cloud_countries_;
    }
    return nullptr;
  }

  [[nodiscard]] bool confines_to_country(const Flow& flow, Scenario scenario) const {
    if (flow.destination == flow.origin) return true;
    const auto* alt = alternatives(flow, scenario);
    if (alt != nullptr && alt->contains(flow.origin)) return true;
    if (scenario == Scenario::RedirectTldPlusMirroring) {
      const auto* mirrored = alternatives(flow, Scenario::PopMirroring);
      if (mirrored != nullptr && mirrored->contains(flow.origin)) return true;
    }
    return false;
  }

  [[nodiscard]] bool confines_to_continent(const Flow& flow, Scenario scenario) const {
    if (flow.destination_continent == flow.origin_continent) return true;
    const auto* alt = alternatives(flow, scenario);
    if (alt != nullptr && set_has_continent(*alt, flow.origin_continent)) return true;
    if (scenario == Scenario::RedirectTldPlusMirroring) {
      const auto* mirrored = alternatives(flow, Scenario::PopMirroring);
      if (mirrored != nullptr && set_has_continent(*mirrored, flow.origin_continent)) {
        return true;
      }
    }
    return false;
  }

  const world::World* world_;
  const geoloc::GeoService* service_;
  geoloc::Tool tool_;
  std::vector<Flow> flows_;
  std::map<std::string, std::set<std::string>> countries_by_fqdn_;
  std::map<std::string, std::set<std::string>> countries_by_registrable_;
  std::map<world::CloudId, std::set<std::string>> cloud_countries_;
  std::set<std::string> all_cloud_countries_;
};

constexpr Scenario kScenarios[] = {Scenario::Default,
                                   Scenario::RedirectFqdn,
                                   Scenario::RedirectTld,
                                   Scenario::PopMirroring,
                                   Scenario::RedirectTldPlusMirroring,
                                   Scenario::CloudMigration};

/// Bit equality: the same double, not merely a close one.
void expect_same_double(double actual, double expected, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual), std::bit_cast<std::uint64_t>(expected))
      << what << ": " << actual << " vs " << expected;
}

void expect_same_result(const LocalizationResult& actual, const LocalizationResult& expected,
                        const std::string& what) {
  EXPECT_EQ(actual.total, expected.total) << what;
  expect_same_double(actual.in_country_pct, expected.in_country_pct, what + " in_country");
  expect_same_double(actual.in_continent_pct, expected.in_continent_pct,
                     what + " in_continent");
}

/// Every scenario's evaluate and evaluate_per_country, and the
/// improvement of every scenario over Default, RedirectTld and itself.
void expect_matches_reference(const LocalizationStudy& study,
                              const ReferenceLocalization& reference) {
  ASSERT_EQ(study.flow_count(), reference.flow_count());
  for (const auto scenario : kScenarios) {
    const std::string name(to_string(scenario));
    expect_same_result(study.evaluate(scenario), reference.evaluate(scenario), name);
    const auto per_country = study.evaluate_per_country(scenario);
    const auto expected = reference.evaluate_per_country(scenario);
    ASSERT_EQ(per_country.size(), expected.size()) << name;
    for (auto it = per_country.begin(), jt = expected.begin(); it != per_country.end();
         ++it, ++jt) {
      ASSERT_EQ(it->first, jt->first) << name;
      expect_same_result(it->second, jt->second, name + " " + it->first);
    }
    for (const auto baseline : {Scenario::Default, Scenario::RedirectTld, scenario}) {
      const auto gains = study.improvement_per_country(baseline, scenario);
      const auto expected_gains = reference.improvement_per_country(baseline, scenario);
      ASSERT_EQ(gains.size(), expected_gains.size()) << name;
      for (auto it = gains.begin(), jt = expected_gains.begin(); it != gains.end();
           ++it, ++jt) {
        ASSERT_EQ(it->first, jt->first) << name;
        expect_same_double(it->second, jt->second,
                           name + " over " + std::string(to_string(baseline)) + " " +
                               it->first);
      }
    }
  }
}

constexpr geoloc::Tool kTools[] = {geoloc::Tool::ActiveIpmap, geoloc::Tool::MaxMindLike,
                                   geoloc::Tool::IpApiLike, geoloc::Tool::GroundTruth,
                                   geoloc::Tool::LegalEntity};

void expect_study_matches_reference(core::Study& study) {
  for (const auto tool : kTools) {
    SCOPED_TRACE(std::string(geoloc::to_string(tool)));
    LocalizationStudy localization(study.world(), study.geo(), tool);
    localization.load(study.dataset(), study.outcomes());
    ReferenceLocalization reference(study.world(), study.geo(), tool);
    reference.load(study.dataset(), study.outcomes());
    EXPECT_GT(reference.flow_count(), 0U);
    expect_matches_reference(localization, reference);
  }
}

TEST_F(WhatIfTest, LoadsOnlyEu28Flows) {
  const auto& localization = study_->localization();
  EXPECT_GT(localization.flow_count(), 1000U);
  // Fewer than the full tracking flow set (non-EU users are excluded).
  std::size_t tracking_total = 0;
  for (const auto& outcome : study_->outcomes()) {
    tracking_total += classify::is_tracking(outcome.method) ? 1 : 0;
  }
  EXPECT_LT(localization.flow_count(), tracking_total);
}

TEST_F(WhatIfTest, ScenarioMonotonicity) {
  // Table 5's structure is an ordering: every redirection scenario only
  // adds alternatives, so confinement can only grow.
  const auto& localization = study_->localization();
  const auto base = localization.evaluate(Scenario::Default);
  const auto fqdn = localization.evaluate(Scenario::RedirectFqdn);
  const auto tld = localization.evaluate(Scenario::RedirectTld);
  const auto combined = localization.evaluate(Scenario::RedirectTldPlusMirroring);

  EXPECT_LE(base.in_country_pct, fqdn.in_country_pct + 1e-9);
  EXPECT_LE(fqdn.in_country_pct, tld.in_country_pct + 1e-9);
  EXPECT_LE(tld.in_country_pct, combined.in_country_pct + 1e-9);
  EXPECT_LE(base.in_continent_pct, fqdn.in_continent_pct + 1e-9);
  EXPECT_LE(fqdn.in_continent_pct, tld.in_continent_pct + 1e-9);
  EXPECT_LE(tld.in_continent_pct, combined.in_continent_pct + 1e-9);
}

TEST_F(WhatIfTest, RedirectionAddsRealImprovement) {
  // The paper's headline (Table 5): TLD-level redirection adds tens of
  // percentage points at national level over the default.
  const auto& localization = study_->localization();
  const auto base = localization.evaluate(Scenario::Default);
  const auto tld = localization.evaluate(Scenario::RedirectTld);
  EXPECT_GT(tld.in_country_pct - base.in_country_pct, 10.0);
  EXPECT_GT(tld.in_continent_pct - base.in_continent_pct, 1.0);
}

TEST_F(WhatIfTest, MirroringHelpsContinentMoreThanCountry) {
  const auto& localization = study_->localization();
  const auto base = localization.evaluate(Scenario::Default);
  const auto mirrored = localization.evaluate(Scenario::PopMirroring);
  const double country_gain = mirrored.in_country_pct - base.in_country_pct;
  const double continent_gain = mirrored.in_continent_pct - base.in_continent_pct;
  EXPECT_GE(country_gain, 0.0);
  EXPECT_GE(continent_gain, 0.0);
  // Mirroring alone never beats mirroring stacked on TLD redirection.
  const auto combined = localization.evaluate(Scenario::RedirectTldPlusMirroring);
  EXPECT_LE(mirrored.in_country_pct, combined.in_country_pct + 1e-9);
  EXPECT_LE(mirrored.in_continent_pct, combined.in_continent_pct + 1e-9);
}

TEST_F(WhatIfTest, CyprusGainsNothingFromCloudMigration) {
  // None of the nine clouds has a Cypriot PoP (Table 6's zero row).
  const auto& localization = study_->localization();
  const auto improvements = localization.improvement_per_country(
      Scenario::Default, Scenario::CloudMigration);
  const auto it = improvements.find("CY");
  if (it != improvements.end()) {
    EXPECT_NEAR(it->second, 0.0, 1e-9);
  }
}

TEST_F(WhatIfTest, SmallCountriesGainMostFromCloudMigration) {
  // Denmark/Greece/Romania start low and have cloud PoPs -> huge gains;
  // Germany/UK start high -> modest gains (Table 6's ordering).
  const auto& localization = study_->localization();
  const auto improvements = localization.improvement_per_country(
      Scenario::Default, Scenario::CloudMigration);
  const auto gain = [&](const char* country) {
    const auto it = improvements.find(country);
    return it == improvements.end() ? 0.0 : it->second;
  };
  EXPECT_GT(gain("DK"), gain("DE"));
  EXPECT_GT(gain("GR"), gain("GB"));
  EXPECT_GT(gain("DK"), 40.0);
}

TEST_F(WhatIfTest, PerCountryEvaluationIsConsistentWithAggregate) {
  const auto& localization = study_->localization();
  const auto aggregate = localization.evaluate(Scenario::Default);
  const auto per_country = localization.evaluate_per_country(Scenario::Default);
  std::uint64_t total = 0;
  double confined_weighted = 0.0;
  for (const auto& [country, result] : per_country) {
    total += result.total;
    confined_weighted += result.in_country_pct * static_cast<double>(result.total);
  }
  EXPECT_EQ(total, aggregate.total);
  EXPECT_NEAR(confined_weighted / static_cast<double>(total), aggregate.in_country_pct,
              1e-6);
}

TEST_F(WhatIfTest, MatchesStringKeyedReferenceUnderEveryTool) {
  expect_study_matches_reference(*study_);
}

TEST(WhatIfSpec, MatchesStringKeyedReferenceAtSecondSeed) {
  core::StudyConfig config;
  config.world.seed = 7;
  config.world.scale = 0.01;
  core::Study study(config);
  expect_study_matches_reference(study);
}

TEST_F(WhatIfTest, StudyLocalizationIsTheActiveToolsStudy) {
  ReferenceLocalization reference(study_->world(), study_->geo(), geoloc::Tool::ActiveIpmap);
  reference.load(study_->dataset(), study_->outcomes());
  expect_matches_reference(study_->localization(), reference);
}

/// Hand-built flows on the fixture's world, located by ground truth so
/// every destination is controllable.
class WhatIfHandBuilt : public WhatIfTest {
 protected:
  static const world::ExtensionUser& user_in(const std::string& country) {
    for (const auto& user : study_->world().users()) {
      if (user.country == country) return user;
    }
    ADD_FAILURE() << "no user in " << country;
    return study_->world().users().front();
  }

  static net::IpAddress server_in(const std::string& country) {
    const auto& world = study_->world();
    for (const auto& server : world.servers()) {
      if (world.datacenter(server.datacenter).country == country) return server.ip;
    }
    ADD_FAILURE() << "no server in " << country;
    return {};
  }

  /// A tracking request (or, with `tracking` false, an unclassified one).
  void add(const world::ExtensionUser& user, world::DomainId domain, net::IpAddress ip,
           bool tracking = true) {
    browser::ThirdPartyRequest request;
    request.user = user.id;
    request.domain = domain;
    request.server_ip = ip;
    dataset_.requests.push_back(request);
    outcomes_.push_back({tracking ? classify::Method::AbpList : classify::Method::None, {}});
  }

  void expect_matches_reference() const {
    const auto& world = study_->world();
    LocalizationStudy localization(world, study_->geo(), geoloc::Tool::GroundTruth);
    localization.load(dataset_, outcomes_);
    ReferenceLocalization reference(world, study_->geo(), geoloc::Tool::GroundTruth);
    reference.load(dataset_, outcomes_);
    ::cbwt::whatif::expect_matches_reference(localization, reference);
  }

  browser::ExtensionDataset dataset_;
  std::vector<classify::Outcome> outcomes_;
};

TEST_F(WhatIfHandBuilt, EdgeCasesMatchReference) {
  const auto& world = study_->world();
  // A registrable shared by several FQDNs, of an org with a cloud, and a
  // domain of an org without one.
  std::map<std::string, std::vector<world::DomainId>> by_registrable;
  for (const auto& domain : world.domains()) by_registrable[domain.registrable].push_back(domain.id);
  const std::vector<world::DomainId>* shared = nullptr;
  for (const auto& [registrable, ids] : by_registrable) {
    if (ids.size() >= 3 && world.org(world.domain(ids[0]).org).cloud != world::kNoCloud) {
      shared = &ids;
      break;
    }
  }
  ASSERT_NE(shared, nullptr);
  const world::TrackerDomain* cloudless = nullptr;
  for (const auto& domain : world.domains()) {
    if (world.org(domain.org).cloud == world::kNoCloud) {
      cloudless = &domain;
      break;
    }
  }
  ASSERT_NE(cloudless, nullptr);

  const auto unlocated = net::IpAddress::v4(123);  // not a server
  ASSERT_TRUE(study_->geo().locate(unlocated, geoloc::Tool::GroundTruth).empty());
  const auto& de = user_in("DE");
  const auto& dk = user_in("DK");
  const auto& cy = user_in("CY");
  const auto& us = user_in("US");

  add(de, (*shared)[0], server_in("DE"));   // stays in its origin country
  add(dk, (*shared)[0], server_in("US"));   // redirectable by FQDN to DE only
  add(dk, (*shared)[1], server_in("FR"));   // a sibling FQDN's destination
  add(dk, (*shared)[2], unlocated);         // this FQDN's only destination: unlocated
  add(cy, (*shared)[1], unlocated);         // an unlocated destination
  add(cy, cloudless->id, server_in("JP"));  // an org without a cloud
  add(de, cloudless->id, server_in("CH"));  // Europe, outside EU28
  add(us, (*shared)[0], server_in("US"));   // a non-EU28 user: out of scope
  add(us, cloudless->id, server_in("GB"));  // ... whose destination adds no alternative
  add(de, (*shared)[2], server_in("GB"), /*tracking=*/false);  // not tracking
  expect_matches_reference();

  LocalizationStudy localization(world, study_->geo(), geoloc::Tool::GroundTruth);
  localization.load(dataset_, outcomes_);
  EXPECT_EQ(localization.flow_count(), 7U);
  // DE->DE stays home; nothing else does by default.
  EXPECT_EQ(localization.evaluate_per_country(Scenario::Default).at("DE").in_country_pct, 50.0);
  EXPECT_EQ(localization.evaluate_per_country(Scenario::Default).at("DK").in_country_pct, 0.0);
  // The unlocated flows never count as confined by default, not even
  // to the continent.
  EXPECT_EQ(localization.evaluate_per_country(Scenario::Default).at("CY").in_continent_pct,
            0.0);
}

TEST_F(WhatIfHandBuilt, EmptyLoadMatchesReference) {
  expect_matches_reference();
  add(user_in("US"), 0, server_in("US"));  // out of scope only
  expect_matches_reference();
}

TEST(WhatIfNames, ScenarioToString) {
  EXPECT_EQ(to_string(Scenario::Default), "Default");
  EXPECT_EQ(to_string(Scenario::RedirectFqdn), "Redirections (FQDN)");
  EXPECT_EQ(to_string(Scenario::RedirectTld), "Redirections (TLD)");
  EXPECT_EQ(to_string(Scenario::PopMirroring), "POP Mirroring (Cloud)");
  EXPECT_EQ(to_string(Scenario::CloudMigration), "Migration to Cloud");
}

}  // namespace
}  // namespace cbwt::whatif
