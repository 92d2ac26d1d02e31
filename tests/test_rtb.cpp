#include "rtb/auction.h"
#include "rtb/cookies.h"
#include "rtb/openrtb.h"

#include <gtest/gtest.h>

namespace cbwt::rtb {
namespace {

TEST(CookieJar, IdsAreMintedOnceAndStable) {
  CookieJar jar;
  util::Rng rng(1);
  EXPECT_FALSE(jar.has_id(5));
  EXPECT_FALSE(jar.id_of(5).has_value());
  const auto id = jar.ensure_id(5, rng);
  EXPECT_TRUE(jar.has_id(5));
  EXPECT_EQ(jar.ensure_id(5, rng), id);
  EXPECT_EQ(jar.id_of(5).value(), id);
  EXPECT_EQ(jar.known_orgs(), 1U);
}

TEST(CookieJar, SyncIsSymmetricAndIdempotent) {
  CookieJar jar;
  EXPECT_FALSE(jar.synced(1, 2));
  jar.record_sync(2, 1);
  EXPECT_TRUE(jar.synced(1, 2));
  EXPECT_TRUE(jar.synced(2, 1));
  jar.record_sync(1, 2);
  EXPECT_EQ(jar.sync_edges(), 1U);
  jar.record_sync(3, 3);  // self-sync is a no-op
  EXPECT_EQ(jar.sync_edges(), 1U);
}

class AuctionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world::WorldConfig config;
    config.seed = 2468;
    config.scale = 0.01;
    config.publishers = 200;
    world_ = new world::World(world::build_world(config));
    resolver_ = new dns::Resolver(*world_);
  }
  static void TearDownTestSuite() {
    delete resolver_;
    delete world_;
  }

  static BidRequest request_for(const char* country) {
    BidRequest request;
    request.id = "42";
    request.imp.id.assign(1, '1');  // not = "1": GCC 12 -O3 -Werror=restrict false positive
    request.imp.bidfloor = 0.05;
    request.site_domain = "news.example.com";
    request.user_country = country;
    return request;
  }

  static std::vector<world::OrgId> some_dsps(std::size_t count) {
    std::vector<world::OrgId> out;
    for (const auto& org : world_->orgs()) {
      if (org.role == world::OrgRole::Dsp) out.push_back(org.id);
      if (out.size() >= count) break;
    }
    return out;
  }

  static world::World* world_;
  static dns::Resolver* resolver_;
};

world::World* AuctionTest::world_ = nullptr;
dns::Resolver* AuctionTest::resolver_ = nullptr;

TEST_F(AuctionTest, RunProducesAWinnerAmongParticipants) {
  const AuctionEngine engine(*world_, *resolver_);
  CookieJar jar;
  util::Rng rng(1);
  const auto bidders = some_dsps(6);
  bool saw_winner = false;
  for (int round = 0; round < 20; ++round) {
    const auto outcome = engine.run(request_for("DE"), bidders, jar, rng);
    EXPECT_EQ(outcome.participants.size(), bidders.size());
    if (outcome.winner) {
      saw_winner = true;
      const bool known = std::find(bidders.begin(), bidders.end(),
                                   outcome.winner->dsp) != bidders.end();
      EXPECT_TRUE(known);
      EXPECT_GE(outcome.winner->price_cpm, 0.05);
      EXPECT_GT(outcome.clearing_price_cpm, 0.0);
      EXPECT_LE(outcome.clearing_price_cpm, outcome.winner->price_cpm + 0.011);
      EXPECT_NE(outcome.winner->creative_url.find("https://"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_winner);
}

TEST_F(AuctionTest, SecondPriceNeverExceedsFirstPrice) {
  AuctionConfig second;
  second.price_rule = PriceRule::SecondPrice;
  AuctionConfig first;
  first.price_rule = PriceRule::FirstPrice;
  const AuctionEngine engine_second(*world_, *resolver_, second);
  const AuctionEngine engine_first(*world_, *resolver_, first);
  CookieJar jar;
  const auto bidders = some_dsps(8);
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  for (int round = 0; round < 30; ++round) {
    const auto outcome_second = engine_second.run(request_for("FR"), bidders, jar, rng_a);
    const auto outcome_first = engine_first.run(request_for("FR"), bidders, jar, rng_b);
    if (outcome_second.winner && outcome_first.winner) {
      // Same RNG stream -> identical bids; only the clearing rule differs.
      EXPECT_LE(outcome_second.clearing_price_cpm,
                outcome_first.clearing_price_cpm + 1e-9);
    }
  }
}

TEST_F(AuctionTest, TightTimeoutDropsBidders) {
  AuctionConfig strict;
  strict.timeout_ms = 15.0;  // below the compute floor: everybody misses
  strict.compute_ms_min = 20.0;
  strict.compute_ms_max = 30.0;
  const AuctionEngine engine(*world_, *resolver_, strict);
  CookieJar jar;
  util::Rng rng(3);
  const auto outcome = engine.run(request_for("DE"), some_dsps(5), jar, rng);
  EXPECT_FALSE(outcome.winner.has_value());
  EXPECT_EQ(outcome.timed_out.size(), 5U);
}

TEST_F(AuctionTest, SyncedProfilesRaiseBids) {
  // With everything else equal, a jar full of synced ids should produce
  // higher average winning valuations.
  const AuctionEngine engine(*world_, *resolver_);
  const auto bidders = some_dsps(6);
  CookieJar cold;
  CookieJar warm;
  {
    util::Rng seed_rng(11);
    for (const auto dsp : bidders) (void)warm.ensure_id(dsp, seed_rng);
  }
  double cold_total = 0.0;
  double warm_total = 0.0;
  int cold_wins = 0;
  int warm_wins = 0;
  util::Rng rng_a(13);
  util::Rng rng_b(13);
  for (int round = 0; round < 200; ++round) {
    const auto outcome_cold = engine.run(request_for("ES"), bidders, cold, rng_a);
    const auto outcome_warm = engine.run(request_for("ES"), bidders, warm, rng_b);
    if (outcome_cold.winner) {
      cold_total += outcome_cold.winner->price_cpm;
      ++cold_wins;
    }
    if (outcome_warm.winner) {
      warm_total += outcome_warm.winner->price_cpm;
      ++warm_wins;
    }
  }
  ASSERT_GT(cold_wins, 20);
  ASSERT_GT(warm_wins, 20);
  EXPECT_GT(warm_total / warm_wins, cold_total / cold_wins);
}

TEST_F(AuctionTest, WinnersWithProfilesDoNotAskToSync) {
  const AuctionEngine engine(*world_, *resolver_);
  const auto bidders = some_dsps(4);
  CookieJar warm;
  util::Rng seed_rng(17);
  for (const auto dsp : bidders) (void)warm.ensure_id(dsp, seed_rng);
  util::Rng rng(19);
  for (int round = 0; round < 50; ++round) {
    const auto outcome = engine.run(request_for("IT"), bidders, warm, rng);
    if (outcome.winner) {
      EXPECT_FALSE(outcome.winner->wants_sync);
    }
  }
}

TEST_F(AuctionTest, CoppaSuppressesMostBidding) {
  const AuctionEngine engine(*world_, *resolver_);
  const auto bidders = some_dsps(6);
  CookieJar jar;
  util::Rng rng_a(23);
  util::Rng rng_b(23);
  int regular_bids = 0;
  int coppa_bids = 0;
  for (int round = 0; round < 100; ++round) {
    auto regular = request_for("DE");
    auto coppa = request_for("DE");
    coppa.coppa = true;
    const auto outcome_a = engine.run(regular, bidders, jar, rng_a);
    const auto outcome_b = engine.run(coppa, bidders, jar, rng_b);
    regular_bids += static_cast<int>(bidders.size() - outcome_a.no_bids.size() -
                                     outcome_a.timed_out.size());
    coppa_bids += static_cast<int>(bidders.size() - outcome_b.no_bids.size() -
                                   outcome_b.timed_out.size());
  }
  EXPECT_LT(coppa_bids, regular_bids / 2);
}

TEST_F(AuctionTest, FarBiddersTimeOutMoreThanNearOnes) {
  // From a European user, US-only bidders face ~80+ ms RTT and miss the
  // budget far more often than EU-hosted ones — the paper's RTB-latency
  // argument for locality.
  AuctionConfig config;
  config.timeout_ms = 100.0;
  const AuctionEngine engine(*world_, *resolver_, config);
  CookieJar jar;
  util::Rng rng(29);

  world::OrgId us_only = 0;
  world::OrgId eu_hosted = 0;
  for (const auto& org : world_->orgs()) {
    if (org.role != world::OrgRole::Dsp || org.domains.empty()) continue;
    // The bid endpoint is the org's first domain; its serving list may
    // include shared exchange hosts, so judge locality on that list.
    bool all_us = true;
    bool any_eu = false;
    for (const auto sid : world_->domain(org.domains.front()).servers) {
      const auto& country = world_->datacenter(world_->server(sid).datacenter).country;
      if (country != "US") all_us = false;
      const auto* info = geo::find_country(country);
      if (info != nullptr && info->eu28) any_eu = true;
    }
    if (all_us && us_only == 0) us_only = org.id;
    if (any_eu && eu_hosted == 0) eu_hosted = org.id;
  }
  ASSERT_NE(us_only, 0U);
  ASSERT_NE(eu_hosted, 0U);

  int us_timeouts = 0;
  int eu_timeouts = 0;
  const std::vector<world::OrgId> pair = {us_only, eu_hosted};
  for (int round = 0; round < 200; ++round) {
    const auto outcome = engine.run(request_for("DE"), pair, jar, rng);
    for (const auto dropped : outcome.timed_out) {
      if (dropped == us_only) ++us_timeouts;
      if (dropped == eu_hosted) ++eu_timeouts;
    }
  }
  EXPECT_GT(us_timeouts, eu_timeouts + 20);
}

}  // namespace
}  // namespace cbwt::rtb
