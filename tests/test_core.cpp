// End-to-end integration tests over the Study facade: the paper's
// headline findings must hold in shape on a small world.
#include "core/study.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/jurisdiction.h"
#include "json_check.h"
#include "netflow/profile.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"
#include "util/stats.h"

namespace cbwt::core {
namespace {

class StudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StudyConfig config;
    config.world.seed = 20180901;
    config.world.scale = 0.02;
    study_ = new Study(config);
  }
  static void TearDownTestSuite() { delete study_; }
  static Study* study_;
};

Study* StudyTest::study_ = nullptr;

TEST_F(StudyTest, DatasetHasTableOneShape) {
  const auto& dataset = study_->dataset();
  EXPECT_EQ(study_->world().users().size(), 350U);
  EXPECT_GT(dataset.first_party_visits, 500U);
  EXPECT_GT(dataset.requests.size(), 50000U);
  // Most third-party requests are ad/tracking related (Fig. 2 takeaway).
  std::size_t tracking = 0;
  for (const auto& outcome : study_->outcomes()) {
    tracking += classify::is_tracking(outcome.method) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(tracking) / dataset.requests.size(), 0.5);
}

TEST_F(StudyTest, PdnsCompletionAddsIps) {
  const auto observed = study_->observed_tracker_ips().size();
  const auto completed = study_->completed_tracker_ips().size();
  EXPECT_GT(observed, 500U);
  EXPECT_GE(completed, observed);
  // Small single-digit-percentage gain, like the paper's +2.78%.
  const double gain = static_cast<double>(completed - observed) /
                      static_cast<double>(observed);
  EXPECT_LT(gain, 0.15);
}

TEST_F(StudyTest, HeadlineConfinementUnderActiveGeolocation) {
  const auto eu_flows = analysis::flows_from_region(study_->flows(), geo::Region::EU28);
  const auto confinement = study_->analyzer().confinement(eu_flows);
  // Paper Fig. 7(b): ~85% of EU28 tracking flows stay inside EU28.
  EXPECT_GT(confinement.in_eu28, 70.0);
  EXPECT_LT(confinement.in_eu28, 95.0);
  EXPECT_GT(confinement.in_continent, confinement.in_eu28);
  // National confinement is much lower (Table 5 Default: 27.6%).
  EXPECT_LT(confinement.in_country, 40.0);
}

TEST_F(StudyTest, MaxMindFlipsTheConclusion) {
  // The paper's Fig. 7(a)/(b) contrast: under the commercial database the
  // majority appears to leak to North America; under active geolocation
  // it stays in Europe.
  const auto eu_flows = analysis::flows_from_region(study_->flows(), geo::Region::EU28);
  const auto active = study_->analyzer(geoloc::Tool::ActiveIpmap)
                          .destination_regions(eu_flows);
  const auto maxmind = study_->analyzer(geoloc::Tool::MaxMindLike)
                           .destination_regions(eu_flows);
  EXPECT_GT(active.share.at(geo::Region::EU28), 0.70);
  EXPECT_LT(maxmind.share.at(geo::Region::EU28), 0.50);
  EXPECT_GT(maxmind.share.at(geo::Region::NorthAmerica),
            active.share.at(geo::Region::NorthAmerica) + 0.25);
}

TEST_F(StudyTest, SouthAmericaLeaksNorth) {
  const auto sa_flows =
      analysis::flows_from_region(study_->flows(), geo::Region::SouthAmerica);
  ASSERT_FALSE(sa_flows.empty());
  const auto breakdown = study_->analyzer().destination_regions(sa_flows);
  // Paper Fig. 6: ~90% of South American tracking flows end in N. America.
  const auto na = breakdown.share.find(geo::Region::NorthAmerica);
  ASSERT_NE(na, breakdown.share.end());
  EXPECT_GT(na->second, 0.5);
  const auto sa = breakdown.share.find(geo::Region::SouthAmerica);
  const double confined = sa == breakdown.share.end() ? 0.0 : sa->second;
  EXPECT_LT(confined, 0.3);
}

TEST_F(StudyTest, BigCountriesConfineMoreThanSmallOnes) {
  const auto eu_flows = analysis::flows_from_region(study_->flows(), geo::Region::EU28);
  const auto by_origin = study_->analyzer().per_origin_confinement(eu_flows);
  const auto pct = [&](const char* country) {
    const auto it = by_origin.find(country);
    return it == by_origin.end() ? 0.0 : it->second.in_country;
  };
  EXPECT_GT(pct("DE"), pct("GR"));
  EXPECT_GT(pct("GB"), pct("CY"));
  EXPECT_GT(pct("ES"), pct("CY"));
  EXPECT_LT(pct("CY"), 5.0);
}

TEST_F(StudyTest, ConfinementCorrelatesWithInfraDensity) {
  // §5's observation: national confinement tracks datacenter density.
  const auto eu_flows = analysis::flows_from_region(study_->flows(), geo::Region::EU28);
  const auto by_origin = study_->analyzer().per_origin_confinement(eu_flows);
  std::vector<double> densities;
  std::vector<double> confinements;
  for (const auto& [country, confinement] : by_origin) {
    if (confinement.total < 200) continue;  // skip tiny samples
    densities.push_back(geo::find_country(country)->infra_density);
    confinements.push_back(confinement.in_country);
  }
  ASSERT_GE(densities.size(), 6U);
  EXPECT_GT(util::spearman(densities, confinements), 0.5);
}

TEST_F(StudyTest, IspRunMatchesExtensionView) {
  const auto& isp = netflow::default_isps()[0];  // DE-Broadband
  const auto& snapshot = netflow::default_snapshots()[1];
  const auto run = study_->run_isp_snapshot(isp, snapshot);
  ASSERT_GT(run.collection.matched_records, 1000U);
  auto analyzer = study_->analyzer();
  const auto breakdown = analyzer.destination_regions(run.flows);
  // Table 8: EU28 confinement 76-93% across ISPs and dates.
  EXPECT_GT(breakdown.share.at(geo::Region::EU28), 0.70);
  // Mostly HTTPS (>83% in the paper).
  EXPECT_GT(static_cast<double>(run.collection.https_records) /
                run.collection.matched_records,
            0.75);
}

TEST_F(StudyTest, MobileIspConfinesMoreThanBroadband) {
  const auto& broadband = netflow::default_isps()[0];
  const auto& mobile = netflow::default_isps()[1];
  const auto& snapshot = netflow::default_snapshots()[0];
  const auto run_b = study_->run_isp_snapshot(broadband, snapshot);
  const auto run_m = study_->run_isp_snapshot(mobile, snapshot);
  auto analyzer = study_->analyzer(geoloc::Tool::GroundTruth);
  const auto eu_b = analyzer.destination_regions(run_b.flows).share.at(geo::Region::EU28);
  const auto eu_m = analyzer.destination_regions(run_m.flows).share.at(geo::Region::EU28);
  EXPECT_GT(eu_m, eu_b - 0.02);  // mobile >= broadband (within noise)
}

TEST_F(StudyTest, JurisdictionViewsAreConsistent) {
  const auto eu_flows = analysis::flows_from_region(study_->flows(), geo::Region::EU28);
  const auto gdpr = analysis::jurisdiction_confinement(
      study_->geo(), geoloc::Tool::ActiveIpmap, analysis::gdpr_jurisdiction(), eu_flows);
  const auto eea = analysis::jurisdiction_confinement(
      study_->geo(), geoloc::Tool::ActiveIpmap, analysis::eea_plus_jurisdiction(),
      eu_flows);
  const auto germany = analysis::jurisdiction_confinement(
      study_->geo(), geoloc::Tool::ActiveIpmap, analysis::national_jurisdiction("DE"),
      eu_flows);
  // All EU28-origin flows originate inside the GDPR scope...
  EXPECT_EQ(gdpr.from_inside, gdpr.total);
  // ...and most terminate there; widening to EEA+ can only add coverage;
  // a single-country scope covers far less.
  EXPECT_GT(gdpr.inside_pct(), 70.0);
  EXPECT_GE(eea.inside, gdpr.inside);
  EXPECT_LT(germany.inside_pct(), gdpr.inside_pct());
  // GDPR coverage here equals the in-eu28 confinement metric.
  const auto confinement = study_->analyzer().confinement(eu_flows);
  EXPECT_NEAR(gdpr.covered_pct(), confinement.in_eu28, 0.5);
}

TEST_F(StudyTest, LegalEntityViewIsMoreUsThanPhysicalView) {
  const auto eu_flows = analysis::flows_from_region(study_->flows(), geo::Region::EU28);
  const auto legal = study_->analyzer(geoloc::Tool::LegalEntity)
                         .destination_regions(eu_flows);
  const auto physical = study_->analyzer(geoloc::Tool::GroundTruth)
                            .destination_regions(eu_flows);
  // Judged by legal home, even more tracking "goes to the US" than the
  // commercial DBs suggest; physically most of it stays in Europe.
  EXPECT_GT(legal.share.at(geo::Region::NorthAmerica),
            physical.share.at(geo::Region::NorthAmerica) + 0.3);
}

TEST_F(StudyTest, StudyIsDeterministic) {
  StudyConfig config;
  config.world.seed = 42;
  config.world.scale = 0.005;
  Study a(config);
  Study b(config);
  // Request stages out of order on purpose: results must not depend on
  // evaluation order.
  (void)b.geo();
  const auto& flows_a = a.flows();
  const auto& flows_b = b.flows();
  ASSERT_EQ(flows_a.size(), flows_b.size());
  for (std::size_t i = 0; i < flows_a.size(); i += 97) {
    EXPECT_EQ(flows_a[i].destination, flows_b[i].destination);
    EXPECT_EQ(flows_a[i].origin_country, flows_b[i].origin_country);
  }
  EXPECT_EQ(a.observed_tracker_ips(), b.observed_tracker_ips());
}

TEST(StudyRunReport, RecordsEveryStageAndStaysValidJson) {
  obs::Registry registry;
  StudyConfig config;
  config.world.seed = 20180901;
  config.world.scale = 0.01;
  config.netflow.scale = 2e-5;
  config.threads = 2;  // exercise the pool/channel metrics too
  config.registry = &registry;
  Study study(config);

  // Drive every instrumented stage once.
  (void)study.pdns_store();
  (void)study.outcomes();
  (void)study.completed_tracker_ips();
  const auto& flows = study.flows();
  (void)study.analyzer().confinement(flows);
  (void)study.run_isp_snapshot(netflow::default_isps()[0],
                               netflow::default_snapshots()[0]);
  (void)study.localization();

  const std::string report = study.run_report();
  EXPECT_TRUE(testing::JsonChecker::valid(report)) << report;
  for (const char* needle :
       {"\"name\":\"cbwt_core_run_report\"", "\"seed\"", "\"threads\":2", "\"obs\"",
        // One span per pipeline stage.
        "\"study/dataset\"", "\"study/pdns_replication\"", "\"study/classify\"",
        "\"classify/stage1_abp\"", "\"classify/stage2_referrer\"",
        "\"classify/stage3_keyword\"", "\"study/geoloc_panel\"",
        "\"study/border_analysis\"", "\"study/isp_snapshot\"",
        "\"study/filterlist\"", "\"study/localization\"",
        "\"netflow/generate\"", "\"netflow/collect\"",
        // Module counters from every instrumented subsystem.
        "cbwt_classify_requests_total", "cbwt_classify_rule_hits_total",
        "cbwt_classify_referrer_passes_total",
        "cbwt_geoloc_cache_misses_total", "cbwt_geoloc_measure_seconds",
        "cbwt_netflow_records_generated_total", "cbwt_netflow_matched_total",
        "cbwt_runtime_channel_pushed_total", "cbwt_runtime_pool_size",
        "cbwt_dns_route_tables", "\"geoloc/prefetch\"", "cbwt_geoloc_refine_tables"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << "missing " << needle;
  }

  // The report refreshes the resolver's table count: one table per
  // effective location the study resolved from.
  const auto gauges = registry.gauges();
  const auto tables = std::find_if(gauges.begin(), gauges.end(), [](const auto& gauge) {
    return gauge.first == "cbwt_dns_route_tables";
  });
  ASSERT_NE(tables, gauges.end());
  EXPECT_EQ(tables->second, static_cast<double>(study.resolver().route_tables()));
  EXPECT_GT(tables->second, 0.0);

  // Active probing runs inside geoloc/prefetch spans that count the IPs
  // they measured, and the report refreshes the geolocator's table count:
  // one table per focus probe that won a scouting round.
  std::uint64_t prefetched = 0;
  for (const auto& span : registry.spans()) {
    if (span.name == "geoloc/prefetch") prefetched += span.items;
  }
  EXPECT_GT(prefetched, 0U);
  EXPECT_EQ(prefetched, registry.counter_value("cbwt_geoloc_probe_batch_ips_total"));
  const auto refine = std::find_if(gauges.begin(), gauges.end(), [](const auto& gauge) {
    return gauge.first == "cbwt_geoloc_refine_tables";
  });
  ASSERT_NE(refine, gauges.end());
  EXPECT_EQ(refine->second, static_cast<double>(study.geo().refine_tables()));
  EXPECT_GT(refine->second, 0.0);
  EXPECT_LE(refine->second, static_cast<double>(config.mesh.probes));

  // The getters without a stage of their own count what they built: the
  // filter engine's rules, the localization study's flows, and the
  // referrer stage's candidates (bounded by the requests left unlisted).
  const auto span_items = [&](std::string_view name) {
    std::uint64_t items = 0;
    std::size_t count = 0;
    for (const auto& span : registry.spans()) {
      if (span.name == name) {
        items += span.items;
        ++count;
      }
    }
    EXPECT_EQ(count, 1U) << name;
    return items;
  };
  EXPECT_EQ(span_items("study/filterlist"), study.classifier().engine().total_rules());
  EXPECT_GT(span_items("study/filterlist"), 0U);
  EXPECT_EQ(span_items("study/localization"), study.localization().flow_count());
  EXPECT_GT(span_items("study/localization"), 0U);
  const std::uint64_t candidates = span_items("classify/stage2_referrer");
  EXPECT_GT(candidates, registry.counter_value("cbwt_classify_referrer_promotions_total"));
  EXPECT_LE(candidates, study.dataset().requests.size() -
                            registry.counter_value("cbwt_classify_rule_hits_total"));
  const std::uint64_t passes = registry.counter_value("cbwt_classify_referrer_passes_total");
  EXPECT_GE(passes, 1U);
  EXPECT_LE(passes, config.classifier.max_iterations);
  // Neither getter runs inside another stage's span.
  for (const auto& span : registry.spans()) {
    if (span.name == "study/filterlist" || span.name == "study/localization") {
      EXPECT_TRUE(span.parent.empty()) << span.name << " inside " << span.parent;
    }
  }

  // Child spans carry their parents.
  EXPECT_NE(report.find("\"name\":\"classify/stage1_abp\",\"parent\":\"study/classify\""),
            std::string::npos);

  // Attaching the registry must not change the classification: the
  // counter breakdown equals an uninstrumented recount.
  std::uint64_t rule_hits = 0;
  for (const auto& outcome : study.outcomes()) {
    rule_hits += outcome.method == classify::Method::AbpList ? 1 : 0;
  }
  EXPECT_EQ(registry.counter_value("cbwt_classify_rule_hits_total"), rule_hits);
  EXPECT_EQ(registry.counter_value("cbwt_classify_requests_total"),
            study.dataset().requests.size());
}

TEST(StudyRunReport, ReplicationBatchRunsOnAWorkerBesideCollection) {
  obs::Registry registry;
  obs::TraceBuffer trace;
  StudyConfig config;
  config.world.seed = 20180901;
  config.world.scale = 0.01;
  config.threads = 2;
  config.registry = &registry;
  config.trace = &trace;
  Study study(config);

  // dataset() draws the batch on a pool worker, which records a trace
  // event but opens no span: study/dataset is the only span so far.
  (void)study.dataset();
  const auto spans = registry.spans();
  ASSERT_EQ(spans.size(), 1U);
  EXPECT_EQ(spans[0].name, "study/dataset");
  bool batch_on_worker = false;
  for (const auto& thread : trace.snapshot()) {
    for (const auto& event : thread.events) {
      if (event.name != "pdns/replicate_batch") continue;
      EXPECT_TRUE(thread.label.starts_with("pool-worker-")) << thread.label;
      batch_on_worker = true;
    }
  }
  EXPECT_TRUE(batch_on_worker);

  // pdns_store() folds it under study/pdns_replication, whose item count
  // stays the store's distinct IPs.
  const auto ips = study.pdns_store().all_ips().size();
  const auto after = registry.spans();
  ASSERT_EQ(after.size(), 2U);
  EXPECT_EQ(after[1].name, "study/pdns_replication");
  EXPECT_EQ(after[1].parent, "");
  EXPECT_EQ(after[1].items, ips);
}

TEST(StudyRunReport, NoRegistryStillProducesValidEmptyReport) {
  StudyConfig config;
  config.world.seed = 7;
  config.world.scale = 0.005;
  Study study(config);
  (void)study.outcomes();
  const std::string report = study.run_report();
  EXPECT_TRUE(testing::JsonChecker::valid(report)) << report;
  EXPECT_NE(report.find("\"counters\":{}"), std::string::npos);
  EXPECT_NE(report.find("\"spans\":[]"), std::string::npos);
}

}  // namespace
}  // namespace cbwt::core
