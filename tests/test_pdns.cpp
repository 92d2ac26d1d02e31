#include "pdns/replication.h"
#include "pdns/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "browser/extension.h"
#include "fault/retry.h"
#include "geo/country.h"

namespace cbwt::pdns {
namespace {

net::IpAddress ip(std::uint32_t v) { return net::IpAddress::v4(v); }

/// The records of `store` on `ip`, in insertion order.
std::vector<Record> records_on(const Store& store, const net::IpAddress& ip) {
  std::vector<Record> out;
  for (const Record& record : store.records()) {
    if (record.ip == ip) out.push_back(record);
  }
  return out;
}

TEST(Store, ObserveCreatesAndExtendsWindows) {
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 10);
  store.observe("a.t.com", "t.com", ip(1), 30);
  store.observe("a.t.com", "t.com", ip(1), 20);
  ASSERT_EQ(store.record_count(), 1U);
  const Record& record = store.records()[0];
  EXPECT_EQ(record.fqdn, "a.t.com");
  EXPECT_EQ(record.first_seen, 10);
  EXPECT_EQ(record.last_seen, 30);
  EXPECT_EQ(record.observations, 3U);
}

TEST(Store, FoldWidensTheWindowAndAddsTheCount) {
  // A windowed fold is the same merge as observing its days one by one.
  Store folded;
  folded.observe("a.t.com", "t.com", ip(1), 12);
  folded.fold("b.t.com", "t.com", ip(2), 3, 9, 4);
  folded.fold("a.t.com", "t.com", ip(1), 5, 20, 3);
  Store observed;
  observed.observe("a.t.com", "t.com", ip(1), 12);
  for (const Day day : {3, 9, 7, 5}) observed.observe("b.t.com", "t.com", ip(2), day);
  for (const Day day : {5, 20, 11}) observed.observe("a.t.com", "t.com", ip(1), day);
  ASSERT_EQ(folded.record_count(), 2U);
  ASSERT_EQ(observed.record_count(), 2U);
  for (std::size_t i = 0; i < 2; ++i) {
    const Record& a = folded.records()[i];
    const Record& b = observed.records()[i];
    EXPECT_EQ(a.fqdn, b.fqdn);
    EXPECT_EQ(a.ip, b.ip);
    EXPECT_EQ(a.first_seen, b.first_seen);
    EXPECT_EQ(a.last_seen, b.last_seen);
    EXPECT_EQ(a.observations, b.observations);
  }
  EXPECT_EQ(folded.records()[0].first_seen, 5);
  EXPECT_EQ(folded.records()[0].last_seen, 20);
  EXPECT_EQ(folded.records()[0].observations, 4U);
}

TEST(Store, SeparateRecordsPerIp) {
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 10);
  store.observe("a.t.com", "t.com", ip(2), 10);
  ASSERT_EQ(store.record_count(), 2U);
  EXPECT_EQ(store.records()[0].ip, ip(1));
  EXPECT_EQ(store.records()[1].ip, ip(2));
  EXPECT_EQ(store.ips_of_registrable("t.com"), (std::vector<net::IpAddress>{ip(1), ip(2)}));
}

TEST(Store, ReverseLookup) {
  // The IP-keyed queries see every record on an IP, across domains.
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 10);
  store.observe("b.u.com", "u.com", ip(1), 12);
  EXPECT_EQ(records_on(store, ip(1)).size(), 2U);
  EXPECT_EQ(store.registrable_count(ip(1)), 2U);
  EXPECT_EQ(store.observations_of(ip(1)), 2U);
  EXPECT_EQ(store.registrable_count(ip(9)), 0U);
  EXPECT_EQ(store.observations_of(ip(9)), 0U);
}

TEST(Store, ValidAtRespectsWindow) {
  // A pair is valid on the days of its window, both ends included.
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 10);
  store.observe("a.t.com", "t.com", ip(1), 20);
  store.observe("b.t.com", "t.com", ip(2), 30);
  const std::vector<net::IpAddress> only_1{ip(1)};
  EXPECT_EQ(store.ips_of_registrable_at("t.com", 10), only_1);
  EXPECT_EQ(store.ips_of_registrable_at("t.com", 15), only_1);
  EXPECT_EQ(store.ips_of_registrable_at("t.com", 20), only_1);
  EXPECT_TRUE(store.ips_of_registrable_at("t.com", 9).empty());
  EXPECT_TRUE(store.ips_of_registrable_at("t.com", 21).empty());
  EXPECT_EQ(store.ips_of_registrable_at("t.com", 30), (std::vector<net::IpAddress>{ip(2)}));
  EXPECT_TRUE(store.ips_of_registrable_at("zzz", 15).empty());
}

TEST(Store, RegistrableCountPerIp) {
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 1);
  store.observe("b.t.com", "t.com", ip(1), 1);  // same registrable
  store.observe("c.u.com", "u.com", ip(1), 1);
  EXPECT_EQ(store.registrable_count(ip(1)), 2U);
  EXPECT_EQ(store.registrable_count(ip(9)), 0U);
  EXPECT_EQ(store.observations_of(ip(1)), 3U);
}

TEST(Store, AllIpsSortedUnique) {
  Store store;
  store.observe("a.t.com", "t.com", ip(5), 1);
  store.observe("b.t.com", "t.com", ip(3), 1);
  store.observe("c.t.com", "t.com", ip(5), 1);
  const auto ips = store.all_ips();
  ASSERT_EQ(ips.size(), 2U);
  EXPECT_EQ(ips[0], ip(3));
  EXPECT_EQ(ips[1], ip(5));
}

TEST(Store, IpsOfRegistrable) {
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 1);
  store.observe("b.t.com", "t.com", ip(2), 1);
  store.observe("x.u.com", "u.com", ip(3), 1);
  const auto ips = store.ips_of_registrable("t.com");
  ASSERT_EQ(ips.size(), 2U);
  EXPECT_TRUE(store.ips_of_registrable("nope").empty());
}

// --- executable spec: per-observation replication ---------------------

/// Replication as one Store::observe per observation, in draw order: the
/// definition replicate_batch + fold_batch must reproduce, record for
/// record and draw for draw.
Day reference_stale_lag_days(const fault::StageSite& pdns, std::uint64_t key) {
  const double u = fault::stateless_uniform(pdns.plan->seed, pdns.site.hash, key,
                                            /*salt=*/0x57A1E0000000000ULL);
  return 30 + static_cast<Day>(u * 90.0);
}

void reference_replicate_background(Store& store, const dns::Resolver& resolver,
                                    const ReplicationConfig& config, util::Rng& rng,
                                    const fault::FaultPlan* fault_plan) {
  const world::World& world = resolver.world();
  const auto pdns = fault::StageSite::resolve(fault_plan, fault::sites::kPdns, nullptr);
  const auto countries = geo::all_countries();
  std::vector<double> country_weights;
  std::vector<dns::QueryOrigin> origins;
  for (const auto& country : countries) {
    country_weights.push_back(country.population_m);
    origins.push_back(resolver.origin_for(country.code, false));
    origins.push_back(resolver.origin_for(country.code, true));
  }
  const util::DiscreteSampler country_sampler(country_weights);
  const auto tracking = world.tracking_domain_ids();
  std::vector<double> domain_weights;
  for (const auto id : tracking) {
    domain_weights.push_back(world.org(world.domain(id).org).popularity);
  }
  const util::DiscreteSampler domain_sampler(domain_weights);

  for (Day day = config.window_start; day <= config.window_end; day += config.sample_every) {
    for (std::uint32_t q = 0; q < config.queries_per_sample; ++q) {
      const std::size_t country = country_sampler.sample(rng);
      const auto domain_id = tracking[domain_sampler.sample(rng)];
      const bool third_party = rng.chance(0.25);
      const auto answer =
          resolver.resolve(domain_id, origins[2 * country + (third_party ? 1 : 0)], rng);
      const auto& domain = world.domain(domain_id);
      Day observed_day = day;
      if (pdns.live()) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(day)) << 32) | q;
        const fault::CallFate fate = pdns.call(key);
        if (!fate.ok()) continue;
        if (fate.stale) observed_day = day - reference_stale_lag_days(pdns, key);
      }
      store.observe(domain.fqdn, domain.registrable, answer.ip, observed_day);
    }
  }
  for (std::uint32_t i = 0; i < config.stale_pairs; ++i) {
    const auto victim_id = tracking[static_cast<std::size_t>(
        rng.next_below(tracking.size()))];
    const auto donor_id = tracking[static_cast<std::size_t>(
        rng.next_below(tracking.size()))];
    const auto& victim = world.domain(victim_id);
    const auto& donor = world.domain(donor_id);
    if (victim.org == donor.org || donor.servers.empty()) continue;
    const auto& donor_server = world.server(donor.servers.front());
    const Day stale_start = config.window_start - 400 + static_cast<Day>(rng.next_below(300));
    store.observe(victim.fqdn, victim.registrable, donor_server.ip, stale_start);
    store.observe(victim.fqdn, victim.registrable, donor_server.ip,
                  stale_start + static_cast<Day>(rng.next_below(60)));
  }
}

void expect_same_records(const Store& got, const Store& want) {
  ASSERT_EQ(got.record_count(), want.record_count());
  for (std::size_t i = 0; i < want.records().size(); ++i) {
    const Record& a = got.records()[i];
    const Record& b = want.records()[i];
    EXPECT_EQ(a.fqdn, b.fqdn) << "record " << i;
    EXPECT_EQ(a.registrable, b.registrable) << "record " << i;
    EXPECT_EQ(a.ip, b.ip) << "record " << i;
    EXPECT_EQ(a.first_seen, b.first_seen) << "record " << i;
    EXPECT_EQ(a.last_seen, b.last_seen) << "record " << i;
    EXPECT_EQ(a.observations, b.observations) << "record " << i;
  }
}

class ReplicationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world::WorldConfig config;
    config.seed = 808;
    config.scale = 0.01;
    config.publishers = 300;
    world_ = new world::World(world::build_world(config));
    resolver_ = new dns::Resolver(*world_);
    // A store the users' browsers already fed, as Study::dataset leaves it.
    collected_ = new Store();
    browser::CollectorConfig collector;
    collector.window_end = 20;
    util::Rng rng(5);
    (void)browser::collect_extension_dataset(*world_, *resolver_, collector, rng, collected_);
  }
  static void TearDownTestSuite() {
    delete collected_;
    delete resolver_;
    delete world_;
    collected_ = nullptr;
    resolver_ = nullptr;
    world_ = nullptr;
  }
  static world::World* world_;
  static dns::Resolver* resolver_;
  static Store* collected_;
};

world::World* ReplicationTest::world_ = nullptr;
dns::Resolver* ReplicationTest::resolver_ = nullptr;
Store* ReplicationTest::collected_ = nullptr;

TEST_F(ReplicationTest, BatchAndFoldMatchThePerObservationReference) {
  ReplicationConfig config;
  config.window_end = 60;
  config.queries_per_sample = 1500;
  config.stale_pairs = 50;
  // Drops (timeouts and errors that exhaust their retries) and stale
  // days on the pdns site only.
  fault::FaultPlan faulty;
  faulty.site_rates[std::string(fault::sites::kPdns)] =
      fault::SiteRates{.timeout = 0.15, .error = 0.1, .slow = 0.0, .stale = 0.2};
  ASSERT_TRUE(faulty.enabled());
  for (const fault::FaultPlan* plan : {static_cast<const fault::FaultPlan*>(nullptr),
                                       static_cast<const fault::FaultPlan*>(&faulty)}) {
    for (const bool fed : {false, true}) {
      SCOPED_TRACE(std::string(plan == nullptr ? "fault-free" : "pdns faults") +
                   (fed ? ", store fed by collection" : ", empty store"));
      Store want = fed ? *collected_ : Store{};
      util::Rng want_rng(11);
      reference_replicate_background(want, *resolver_, config, want_rng, plan);

      Store got = fed ? *collected_ : Store{};
      util::Rng got_rng(11);
      replicate_background(got, *resolver_, config, got_rng, plan);
      expect_same_records(got, want);
      EXPECT_EQ(got_rng(), want_rng());

      // The batch alone, folded later, builds the same table.
      util::Rng batch_rng(11);
      const auto batch = replicate_batch(*resolver_, config, batch_rng, plan);
      Store folded = fed ? *collected_ : Store{};
      fold_batch(folded, *world_, batch);
      expect_same_records(folded, want);
      EXPECT_GT(want.record_count(), fed ? collected_->record_count() : 0U);
    }
  }
}

TEST_F(ReplicationTest, BatchKeepsOneEntryPerDomainAndServer) {
  ReplicationConfig config;
  config.window_end = 30;
  config.queries_per_sample = 1000;
  util::Rng rng(12);
  const auto batch = replicate_batch(*resolver_, config, rng);
  std::set<std::pair<world::DomainId, world::ServerId>> pairs;
  std::uint64_t observations = 0;
  for (const BatchEntry& entry : batch) {
    EXPECT_TRUE(pairs.emplace(entry.domain, entry.server).second);
    EXPECT_EQ(entry.ip, world_->server(entry.server).ip);
    EXPECT_LE(entry.first_seen, entry.last_seen);
    observations += entry.observations;
  }
  // Every query survives without a fault plan; each stale pair that
  // finds a donor adds two observations.
  const std::uint64_t queries = 11ULL * config.queries_per_sample;
  EXPECT_GE(observations, queries);
  EXPECT_LE(observations, queries + 2ULL * config.stale_pairs);
}

TEST_F(ReplicationTest, ServersSharingAnIpFoldIntoOneRecord) {
  // Keyed by (domain, server), a batch may hold two servers of one
  // domain with the same address; the store keys by (fqdn, ip), so they
  // become one record: min first, max last, summed count, placed where
  // the earlier entry lands.
  const auto tracking = world_->tracking_domain_ids();
  ASSERT_GE(tracking.size(), 2U);
  const world::DomainId d = tracking[0];
  const world::DomainId e = tracking[1];
  const std::vector<BatchEntry> batch{
      {d, 1, ip(7), 10, 20, 3},
      {e, 2, ip(8), 5, 5, 1},
      {d, 3, ip(7), 2, 30, 4},
  };
  Store store;
  fold_batch(store, *world_, batch);
  ASSERT_EQ(store.record_count(), 2U);
  const Record& shared = store.records()[0];
  EXPECT_EQ(shared.fqdn, world_->domain(d).fqdn);
  EXPECT_EQ(shared.ip, ip(7));
  EXPECT_EQ(shared.first_seen, 2);
  EXPECT_EQ(shared.last_seen, 30);
  EXPECT_EQ(shared.observations, 7U);
  EXPECT_EQ(store.records()[1].fqdn, world_->domain(e).fqdn);
}

TEST_F(ReplicationTest, PopulatesStoreWithTrackingDomains) {
  Store store;
  ReplicationConfig config;
  config.window_end = 30;
  config.queries_per_sample = 500;
  config.stale_pairs = 0;
  util::Rng rng(1);
  replicate_background(store, *resolver_, config, rng);
  EXPECT_GT(store.record_count(), 100U);
  // Every recorded fqdn is a real tracking domain of the world.
  std::size_t checked = 0;
  for (const Record& record : store.records()) {
    const auto* domain = world_->find_domain(record.fqdn);
    ASSERT_NE(domain, nullptr) << record.fqdn;
    EXPECT_NE(world_->org(domain->org).role, world::OrgRole::CleanService);
    if (++checked > 200) return;
  }
}

TEST_F(ReplicationTest, WindowsStayInsideReplicationWindow) {
  Store store;
  ReplicationConfig config;
  config.window_start = 5;
  config.window_end = 25;
  config.queries_per_sample = 200;
  config.stale_pairs = 0;
  util::Rng rng(2);
  replicate_background(store, *resolver_, config, rng);
  for (const Record& record : store.records()) {
    EXPECT_GE(record.first_seen, 5);
    EXPECT_LE(record.last_seen, 25);
  }
}

TEST_F(ReplicationTest, StalePairsLiveBeforeTheWindow) {
  Store store;
  ReplicationConfig config;
  config.window_end = 10;
  config.queries_per_sample = 50;
  config.stale_pairs = 40;
  util::Rng rng(3);
  replicate_background(store, *resolver_, config, rng);
  std::size_t stale = 0;
  for (const Record& record : store.records()) {
    if (record.last_seen < 0) ++stale;
  }
  EXPECT_GT(stale, 0U);
  // Validity-window filtering removes them for any in-window day: the
  // day-5 lookup returns a pre-window pair's IP only when another pair
  // of the same registrable domain and IP is live that day.
  for (const Record& record : store.records()) {
    if (record.last_seen >= 0) continue;
    const auto& all = store.records();
    const bool live_elsewhere = std::any_of(all.begin(), all.end(), [&](const Record& other) {
      return other.registrable == record.registrable && other.ip == record.ip &&
             other.first_seen <= 5 && 5 <= other.last_seen;
    });
    const auto live = store.ips_of_registrable_at(record.registrable, 5);
    EXPECT_EQ(std::find(live.begin(), live.end(), record.ip) != live.end(), live_elsewhere)
        << record.fqdn << " " << record.ip.to_string();
  }
}

TEST_F(ReplicationTest, FindsServersAcrossTheWholeFootprint) {
  // A worldwide background population should observe servers on several
  // continents — including ones a Europe-heavy user base would miss.
  Store store;
  ReplicationConfig config;
  config.window_end = 60;
  config.queries_per_sample = 2000;
  config.stale_pairs = 0;
  util::Rng rng(4);
  replicate_background(store, *resolver_, config, rng);
  std::set<std::string> continents;
  for (const auto& ip_addr : store.all_ips()) {
    const auto country = world_->true_country_of(ip_addr);
    if (country.empty()) continue;
    continents.insert(std::string(geo::to_string(geo::find_country(country)->continent)));
  }
  EXPECT_GE(continents.size(), 3U);
}

}  // namespace
}  // namespace cbwt::pdns
