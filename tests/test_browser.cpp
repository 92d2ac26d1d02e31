#include "browser/extension.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "net/url.h"

namespace cbwt::browser {
namespace {

/// sample_orgs as it was before OrgSampler: every call rescans all orgs
/// for the pool and walks the weights with sample_discrete per draw. The
/// executable spec OrgSampler must match draw for draw.
std::vector<world::OrgId> reference_sample_orgs(const world::World& world,
                                                world::OrgRole role, std::size_t count,
                                                std::string_view local_country,
                                                util::Rng& rng) {
  std::vector<world::OrgId> pool;
  std::vector<double> weights;
  for (const auto& org : world.orgs()) {
    if (org.role == role) {
      pool.push_back(org.id);
      weights.push_back(org.popularity * (org.hq_country == local_country ? 4.0 : 1.0));
    }
  }
  std::vector<world::OrgId> out;
  for (std::size_t i = 0; i < count * 3 && out.size() < count; ++i) {
    const auto picked = pool[util::sample_discrete(rng, weights)];
    if (std::find(out.begin(), out.end(), picked) == out.end()) out.push_back(picked);
  }
  return out;
}

/// publisher_weights as it was before topic masks: a linear search of
/// the user's interests per publisher topic.
std::vector<double> reference_publisher_weights(const world::World& world,
                                                const world::ExtensionUser& user) {
  const auto& publishers = world.publishers();
  std::vector<double> weights(publishers.size());
  for (std::size_t i = 0; i < publishers.size(); ++i) {
    double weight = publishers[i].popularity;
    for (const auto topic : publishers[i].topics) {
      if (std::find(user.interests.begin(), user.interests.end(), topic) !=
          user.interests.end()) {
        weight *= 3.0;
        break;
      }
    }
    if (publishers[i].country == user.country) weight *= 5.0;
    weights[i] = weight;
  }
  return weights;
}

class BrowserTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world::WorldConfig config;
    config.seed = 31337;
    config.scale = 0.01;
    world_ = new world::World(world::build_world(config));
    resolver_ = new dns::Resolver(*world_);
    util::Rng rng(7);
    CollectorConfig collector;
    store_ = new pdns::Store();
    dataset_ = new ExtensionDataset(
        collect_extension_dataset(*world_, *resolver_, collector, rng, store_));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete store_;
    delete resolver_;
    delete world_;
  }
  static world::World* world_;
  static dns::Resolver* resolver_;
  static pdns::Store* store_;
  static ExtensionDataset* dataset_;
};

world::World* BrowserTest::world_ = nullptr;
dns::Resolver* BrowserTest::resolver_ = nullptr;
pdns::Store* BrowserTest::store_ = nullptr;
ExtensionDataset* BrowserTest::dataset_ = nullptr;

TEST_F(BrowserTest, ProducesTraffic) {
  EXPECT_GT(dataset_->first_party_visits, 100U);
  EXPECT_GT(dataset_->requests.size(), dataset_->first_party_visits * 10);
  EXPECT_GT(dataset_->distinct_publishers, 50U);
}

TEST_F(BrowserTest, EveryUrlParsesAndMatchesItsDomain) {
  for (const auto& request : dataset_->requests) {
    const auto url = net::Url::parse(request.url);
    ASSERT_TRUE(url.has_value()) << request.url;
    EXPECT_EQ(url->host(), world_->domain(request.domain).fqdn);
  }
}

TEST_F(BrowserTest, ServerIpBelongsToTheRequestedDomain) {
  for (const auto& request : dataset_->requests) {
    const auto& domain = world_->domain(request.domain);
    const world::Server* server = world_->find_server(request.server_ip);
    ASSERT_NE(server, nullptr);
    const bool listed = std::find(domain.servers.begin(), domain.servers.end(),
                                  server->id) != domain.servers.end();
    EXPECT_TRUE(listed) << domain.fqdn;
  }
}

TEST_F(BrowserTest, EntryRequestsCarryFirstPartyReferrer) {
  for (const auto& request : dataset_->requests) {
    if (request.chain_depth != 0) continue;
    const auto& publisher = world_->publisher(request.publisher);
    EXPECT_EQ(request.referrer, "https://" + publisher.domain + "/");
  }
}

TEST_F(BrowserTest, ChainedRequestsReferenceARealParentUrl) {
  // Build the set of all URLs; every chained referrer must be in it.
  std::unordered_set<std::string_view> urls;
  for (const auto& request : dataset_->requests) urls.insert(request.url);
  std::size_t chained = 0;
  for (const auto& request : dataset_->requests) {
    if (request.chain_depth == 0) continue;
    ++chained;
    EXPECT_TRUE(urls.contains(request.referrer)) << request.referrer;
  }
  EXPECT_GT(chained, dataset_->requests.size() / 5);
}

TEST_F(BrowserTest, EachUrlIsStoredOnceAndChainsShareIt) {
  // The text buffer holds the stored URLs plus one page URL per rendered
  // visit, nothing else. A chained request's referrer is its parent's
  // url view, not a copy, and an entry request's referrer is its visit's
  // page URL view.
  std::unordered_map<const char*, std::string_view> stored;
  for (const auto& request : dataset_->requests) stored.emplace(request.url.data(), request.url);
  std::unordered_set<const char*> page_urls;
  std::size_t text_bytes = 0;
  for (const auto& [start, url] : stored) text_bytes += url.size();
  for (const auto& request : dataset_->requests) {
    if (request.chain_depth == 0) {
      if (page_urls.insert(request.referrer.data()).second) text_bytes += request.referrer.size();
    } else {
      EXPECT_TRUE(stored.contains(request.referrer.data())) << request.referrer;
    }
  }
  EXPECT_LE(page_urls.size(), dataset_->first_party_visits);
  EXPECT_EQ(dataset_->text->bytes_used(), text_bytes);

  // URLs without a random id (tag versions, app bundles, widget embeds)
  // repeat across requests and are stored once each; the rest repeat
  // only by chance, so a URL is stored twice for well under 1% of them.
  std::unordered_map<std::string_view, const char*> first_copy;
  std::size_t extra_copies = 0;
  for (const auto& [start, url] : stored) {
    const auto [it, fresh] = first_copy.emplace(url, start);
    if (fresh) continue;
    ++extra_copies;
    EXPECT_EQ(url.find("/adserve/tag.js"), std::string_view::npos) << url;
    EXPECT_EQ(url.find("/assets/app-"), std::string_view::npos) << url;
    EXPECT_EQ(url.find("/widget/embed"), std::string_view::npos) << url;
  }
  EXPECT_LT(stored.size(), dataset_->requests.size() * 9 / 10);
  EXPECT_LT(extra_copies * 100, dataset_->requests.size());
}

TEST_F(BrowserTest, ViewsOutliveTheDatasetTheyWereCopiedOrMovedFrom) {
  // A fresh run with the fixture's seed, so it is the only owner of its
  // text; AddressSanitizer reports any view left dangling below.
  util::Rng rng(7);
  std::optional<ExtensionDataset> source(
      collect_extension_dataset(*world_, *resolver_, CollectorConfig{}, rng));
  std::optional<ExtensionDataset> copy(*source);
  const ExtensionDataset moved = std::move(*source);
  source.reset();
  const auto expect_fixture_text = [&](const ExtensionDataset& dataset) {
    ASSERT_EQ(dataset.requests.size(), dataset_->requests.size());
    for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
      ASSERT_EQ(dataset.requests[i].url, dataset_->requests[i].url);
      ASSERT_EQ(dataset.requests[i].referrer, dataset_->requests[i].referrer);
    }
  };
  expect_fixture_text(*copy);
  copy.reset();  // `moved` is now the text's only owner
  expect_fixture_text(moved);
}

TEST_F(BrowserTest, ChainDepthsFormTheRtbCascade) {
  bool depth1 = false;
  bool depth2 = false;
  bool depth3 = false;
  for (const auto& request : dataset_->requests) {
    depth1 = depth1 || request.chain_depth == 1;
    depth2 = depth2 || request.chain_depth == 2;
    depth3 = depth3 || request.chain_depth >= 3;
  }
  EXPECT_TRUE(depth1);  // bid requests
  EXPECT_TRUE(depth2);  // cookie syncs
  EXPECT_TRUE(depth3);  // recursive sync cascades
}

TEST_F(BrowserTest, HttpsShareNearConfigured) {
  std::size_t https = 0;
  for (const auto& request : dataset_->requests) https += request.https ? 1 : 0;
  const double share = static_cast<double>(https) / dataset_->requests.size();
  EXPECT_NEAR(share, 0.8314, 0.02);  // paper: 83.14%
}

TEST_F(BrowserTest, RolesEmitTheirUrlShapes) {
  bool saw_ad_path = false;
  bool saw_sync_keyword = false;
  bool saw_bid = false;
  for (const auto& request : dataset_->requests) {
    const auto role = world_->org(world_->domain(request.domain).org).role;
    if (role == world::OrgRole::AdNetwork && request.url.find("/ads/") != std::string::npos) {
      saw_ad_path = true;
    }
    if (role == world::OrgRole::SyncService) {
      saw_sync_keyword = saw_sync_keyword ||
                         request.url.find("usermatch") != std::string::npos ||
                         request.url.find("cookiesync") != std::string::npos ||
                         request.url.find("uid_sync") != std::string::npos ||
                         request.url.find("idsync") != std::string::npos ||
                         request.url.find("cm=") != std::string::npos;
    }
    if (role == world::OrgRole::Dsp && request.url.find("/bid?") != std::string::npos) {
      saw_bid = true;
    }
  }
  EXPECT_TRUE(saw_ad_path);
  EXPECT_TRUE(saw_sync_keyword);
  EXPECT_TRUE(saw_bid);
}

TEST_F(BrowserTest, FeedsPdnsWithItsResolutions) {
  EXPECT_GT(store_->record_count(), 100U);
  // Spot-check: the first request's (fqdn, ip) record covers its day.
  const auto& request = dataset_->requests.front();
  const auto& domain = world_->domain(request.domain);
  const auto& records = store_->records();
  const auto record = std::find_if(records.begin(), records.end(), [&](const auto& r) {
    return r.fqdn == domain.fqdn && r.ip == request.server_ip;
  });
  ASSERT_NE(record, records.end());
  EXPECT_LE(record->first_seen, request.day);
  EXPECT_GE(record->last_seen, request.day);
}

TEST_F(BrowserTest, DaysStayInsideTheWindow) {
  for (const auto& request : dataset_->requests) {
    EXPECT_GE(request.day, 0);
    EXPECT_LE(request.day, 135);
  }
}

TEST_F(BrowserTest, OrgSamplerMatchesTheRescanningReference) {
  // One sampler for the whole sweep, so later calls hit cached pools;
  // "ZZ" is a market no org calls home.
  std::vector<std::string> countries{"ZZ"};
  for (const auto& user : world_->users()) {
    if (std::find(countries.begin(), countries.end(), user.country) == countries.end()) {
      countries.push_back(user.country);
    }
  }
  OrgSampler sampler(*world_);
  util::Rng rng(404);
  util::Rng reference_rng(404);
  std::size_t draws = 0;
  for (int round = 0; round < 3; ++round) {
    for (const auto role : {world::OrgRole::Dsp, world::OrgRole::SyncService}) {
      for (const auto& country : countries) {
        for (std::size_t count = 1; count <= 6; ++count) {
          const auto got = sampler.sample(role, count, country, rng);
          const auto want = reference_sample_orgs(*world_, role, count, country, reference_rng);
          ASSERT_EQ(got, want) << world::to_string(role) << " " << country << " " << count;
          ASSERT_EQ(rng(), reference_rng()) << world::to_string(role) << " " << country;
          draws += got.size();
        }
      }
    }
  }
  EXPECT_GT(draws, 1000U);
}

TEST_F(BrowserTest, PublisherWeightsMatchTheTopicScanReference) {
  const auto masks = publisher_topic_masks(*world_);
  for (const auto& user : world_->users()) {
    const auto want = reference_publisher_weights(*world_, user);
    const auto got = publisher_weights(*world_, masks, user);
    ASSERT_EQ(got, want) << "user " << user.id;  // bitwise: same products, same order
    ASSERT_EQ(publisher_weights(*world_, user), want) << "user " << user.id;
    // The draws a visit makes from them: same index, same next rng output.
    const util::DiscreteSampler sampler(got);
    util::Rng rng(user.id);
    util::Rng reference_rng(user.id);
    for (int draw = 0; draw < 8; ++draw) {
      ASSERT_EQ(sampler.sample(rng), util::sample_discrete(reference_rng, want));
    }
    ASSERT_EQ(rng(), reference_rng());
  }
}

TEST(BrowserAblation, CrawlerSeesFewerRequestsThanRealUsers) {
  world::WorldConfig config;
  config.seed = 2024;
  config.scale = 0.01;
  const auto world = world::build_world(config);
  const dns::Resolver resolver(world);

  CollectorConfig real_users;
  real_users.user_interaction = true;
  CollectorConfig crawler;
  crawler.user_interaction = false;

  util::Rng rng_a(5);
  const auto with_interaction =
      collect_extension_dataset(world, resolver, real_users, rng_a);
  util::Rng rng_b(5);
  const auto without_interaction =
      collect_extension_dataset(world, resolver, crawler, rng_b);

  // Interaction-gated requests (ads rendered on visibility) disappear for
  // the crawler — the paper's argument for recruiting real users (§3.1).
  EXPECT_LT(without_interaction.requests.size(), with_interaction.requests.size());
  for (const auto& request : without_interaction.requests) {
    EXPECT_FALSE(request.interaction_triggered);
  }
}

TEST(BrowserUnit, VisitsFillTheCookieJar) {
  world::WorldConfig config;
  config.seed = 21;
  config.scale = 0.01;
  config.publishers = 50;
  const auto world = world::build_world(config);
  const dns::Resolver resolver(world);
  util::Rng rng(9);
  ExtensionDataset out;
  CollectorConfig collector;
  rtb::CookieJar jar;
  // A few visits accumulate org ids and sync edges in the jar.
  for (int v = 0; v < 5; ++v) {
    render_visit(world, resolver, world.users().front(), world.publishers()[v], 3,
                 collector, rng, out, nullptr, &jar);
  }
  EXPECT_GT(jar.known_orgs(), 5U);
  EXPECT_GT(jar.sync_edges(), 0U);
  // Every synced pair involves orgs the jar has ids for... the initiator
  // at least was contacted during the cascade.
  for (const auto& [a, b] : jar.sync_pairs()) {
    EXPECT_NE(a, b);
    EXPECT_NE(world.org(a).role, world::OrgRole::CleanService);
    EXPECT_NE(world.org(b).role, world::OrgRole::CleanService);
  }
}

TEST(BrowserUnit, RenderVisitAppendsForOnePage) {
  world::WorldConfig config;
  config.seed = 11;
  config.scale = 0.01;
  config.publishers = 50;
  const auto world = world::build_world(config);
  const dns::Resolver resolver(world);
  util::Rng rng(3);
  ExtensionDataset out;
  CollectorConfig collector;
  render_visit(world, resolver, world.users().front(), world.publishers().front(), 7,
               collector, rng, out);
  EXPECT_FALSE(out.requests.empty());
  for (const auto& request : out.requests) {
    EXPECT_EQ(request.user, world.users().front().id);
    EXPECT_EQ(request.publisher, world.publishers().front().id);
    EXPECT_EQ(request.day, 7);
  }
}

}  // namespace
}  // namespace cbwt::browser
