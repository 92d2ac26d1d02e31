#include "dns/resolver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "geo/country.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace cbwt::dns {
namespace {

using world::DnsPolicy;
using world::World;
using world::WorldConfig;

const World& test_world() {
  static const World world = [] {
    WorldConfig config;
    config.seed = 555;
    config.scale = 0.01;
    config.publishers = 300;
    return world::build_world(config);
  }();
  return world;
}

/// The uncached resolve: the executable spec of Resolver::resolve, which
/// precomputes the world-dependent half of this computation in its route
/// tables. Every query rebuilds, sorts and weights the domain's sites
/// from scratch.
Resolution reference_resolve(const World& world, const ResolverOptions& options,
                             world::DomainId domain, const QueryOrigin& origin,
                             util::Rng& rng) {
  const auto& dom = world.domain(domain);
  const auto& org = world.org(dom.org);

  QueryOrigin effective = origin;
  if (origin.via_third_party && options.ecs_adoption > 0.0 && options.ecs_adoption < 1.0 &&
      rng.chance(options.ecs_adoption)) {
    if (const geo::Country* home = geo::find_country(origin.client_country)) {
      effective.effective_location = home->centroid;
    }
  }

  std::size_t chosen = 0;
  switch (org.dns_policy) {
    case DnsPolicy::RandomPop: {
      chosen = static_cast<std::size_t>(rng.next_below(dom.servers.size()));
      break;
    }
    case DnsPolicy::HqOnly: {
      std::vector<double> weights(dom.servers.size(), 0.0);
      bool any = false;
      for (std::size_t i = 0; i < dom.servers.size(); ++i) {
        const auto& server = world.server(dom.servers[i]);
        if (world.datacenter(server.datacenter).country == org.hq_country) {
          weights[i] = 1.0;
          any = true;
        }
      }
      if (!any) {
        for (auto& w : weights) w = 1.0;
      }
      chosen = util::sample_discrete(rng, weights);
      break;
    }
    case DnsPolicy::NearestPop: {
      struct Site {
        world::DatacenterId dc;
        double delay = 0.0;
        bool exchange_only = true;
        std::vector<std::size_t> member_indices;
      };
      std::vector<Site> sites;
      for (std::size_t i = 0; i < dom.servers.size(); ++i) {
        const auto& server = world.server(dom.servers[i]);
        auto it = std::find_if(sites.begin(), sites.end(), [&](const Site& site) {
          return site.dc == server.datacenter;
        });
        if (it == sites.end()) {
          Site site;
          site.dc = server.datacenter;
          site.delay = geo::propagation_delay_ms(
              effective.effective_location, world.datacenter(server.datacenter).location);
          sites.push_back(std::move(site));
          it = sites.end() - 1;
        }
        it->member_indices.push_back(i);
        if (!server.shared_exchange) it->exchange_only = false;
      }
      std::sort(sites.begin(), sites.end(),
                [](const Site& a, const Site& b) { return a.delay < b.delay; });
      const std::size_t radius = std::min(options.serving_radius, sites.size());
      std::vector<double> site_weights(radius, 0.0);
      for (std::size_t i = 0; i < radius; ++i) {
        site_weights[i] =
            1.0 / std::pow(sites[i].delay + options.delay_floor_ms, options.gamma);
        if (sites[i].exchange_only) site_weights[i] *= options.exchange_damping;
      }
      const Site& picked = sites[util::sample_discrete(rng, site_weights)];
      chosen = picked.member_indices[static_cast<std::size_t>(
          rng.next_below(picked.member_indices.size()))];
      break;
    }
  }

  Resolution result;
  result.server = dom.servers[chosen];
  result.ip = world.server(result.server).ip;
  result.ttl_s = ttl_for(org);
  return result;
}

/// Every country's two query origins: through its ISP's resolver and
/// through a public one.
std::vector<QueryOrigin> all_origins(const Resolver& resolver) {
  std::vector<QueryOrigin> origins;
  for (const auto& country : geo::all_countries()) {
    origins.push_back(resolver.origin_for(country.code, false));
    origins.push_back(resolver.origin_for(country.code, true));
  }
  return origins;
}

TEST(Resolver, OriginForIspResolverIsHomeCountry) {
  const Resolver resolver(test_world());
  const auto origin = resolver.origin_for("DE", false);
  EXPECT_EQ(origin.client_country, "DE");
  EXPECT_FALSE(origin.via_third_party);
  const auto* de = geo::find_country("DE");
  EXPECT_NEAR(origin.effective_location.lat, de->centroid.lat, 1e-9);
}

TEST(Resolver, OriginForThirdPartyResolverMovesToAnycast) {
  const Resolver resolver(test_world());
  const auto origin = resolver.origin_for("DE", true);
  EXPECT_TRUE(origin.via_third_party);
  // German clients land on the Amsterdam anycast site.
  EXPECT_NEAR(origin.effective_location.lat, 52.4, 1e-9);
  EXPECT_NEAR(origin.effective_location.lon, 4.9, 1e-9);
}

TEST(Resolver, OriginRejectsUnknownCountry) {
  const Resolver resolver(test_world());
  EXPECT_THROW((void)resolver.origin_for("ZZ", false), std::invalid_argument);
}

TEST(Resolver, ResolveReturnsServerOfTheDomain) {
  const auto& world = test_world();
  const Resolver resolver(world);
  util::Rng rng(1);
  const auto origin = resolver.origin_for("DE", false);
  for (const auto& domain : world.domains()) {
    const auto answer = resolver.resolve(domain.id, origin, rng);
    const bool known = std::find(domain.servers.begin(), domain.servers.end(),
                                 answer.server) != domain.servers.end();
    EXPECT_TRUE(known) << domain.fqdn;
    EXPECT_EQ(world.server(answer.server).ip, answer.ip);
    if (world.domains().size() > 50 && domain.id > 50) break;  // keep the test fast
  }
}

TEST(Resolver, HqOnlyPolicyStaysAtHeadquarters) {
  const auto& world = test_world();
  const Resolver resolver(world);
  util::Rng rng(2);
  const auto origin = resolver.origin_for("JP", false);
  for (const auto& org : world.orgs()) {
    if (org.dns_policy != DnsPolicy::HqOnly) continue;
    // Skip orgs that genuinely have no HQ deployment (fallback case).
    bool has_home = false;
    for (const auto sid : org.servers) {
      if (world.datacenter(world.server(sid).datacenter).country == org.hq_country) {
        has_home = true;
        break;
      }
    }
    if (!has_home) continue;
    const auto domain_id = org.domains.front();
    // Only domains that actually deploy at home can satisfy the policy.
    bool domain_has_home = false;
    for (const auto sid : world.domain(domain_id).servers) {
      if (world.datacenter(world.server(sid).datacenter).country == org.hq_country) {
        domain_has_home = true;
        break;
      }
    }
    if (!domain_has_home) continue;
    for (int i = 0; i < 10; ++i) {
      const auto answer = resolver.resolve(domain_id, origin, rng);
      EXPECT_EQ(world.datacenter(world.server(answer.server).datacenter).country,
                org.hq_country);
    }
  }
}

TEST(Resolver, NearestPopPrefersCloseSites) {
  const auto& world = test_world();
  const Resolver resolver(world);
  util::Rng rng(3);
  const auto origin = resolver.origin_for("DE", false);
  // Aggregate over popular multi-pop orgs: German users should terminate
  // in/near Germany far more often than in North America.
  std::uint64_t near = 0;
  std::uint64_t far = 0;
  for (const auto& org : world.orgs()) {
    if (org.dns_policy != DnsPolicy::NearestPop || org.servers.size() < 5) continue;
    for (int i = 0; i < 30; ++i) {
      const auto answer = resolver.resolve(org.domains.front(), origin, rng);
      const auto country =
          world.datacenter(world.server(answer.server).datacenter).country;
      const auto* info = geo::find_country(country);
      ASSERT_NE(info, nullptr);
      if (info->continent == geo::Continent::Europe) ++near;
      else ++far;
    }
  }
  ASSERT_GT(near + far, 100U);
  EXPECT_GT(static_cast<double>(near) / static_cast<double>(near + far), 0.80);
}

TEST(Resolver, ServingRadiusNeverHandsOutDistantReplicas) {
  // With radius k, the answer must be one of the k nearest distinct sites.
  const auto& world = test_world();
  ResolverOptions options;
  options.serving_radius = 2;
  const Resolver resolver(world, options);
  util::Rng rng(4);
  const auto origin = resolver.origin_for("FR", false);
  for (const auto& org : world.orgs()) {
    if (org.dns_policy != DnsPolicy::NearestPop || org.servers.size() < 4) continue;
    const auto domain_id = org.domains.front();
    const auto& domain = world.domain(domain_id);
    // Compute the distinct-site delays for this domain from France.
    std::map<world::DatacenterId, double> site_delay;
    for (const auto sid : domain.servers) {
      const auto& dc = world.datacenter(world.server(sid).datacenter);
      site_delay.emplace(dc.id,
                         geo::propagation_delay_ms(origin.effective_location, dc.location));
    }
    std::vector<double> delays;
    delays.reserve(site_delay.size());
    for (const auto& [dc, delay] : site_delay) delays.push_back(delay);
    std::sort(delays.begin(), delays.end());
    const double cutoff = delays[std::min<std::size_t>(1, delays.size() - 1)];
    for (int i = 0; i < 20; ++i) {
      const auto answer = resolver.resolve(domain_id, origin, rng);
      const auto dc = world.server(answer.server).datacenter;
      EXPECT_LE(site_delay.at(dc), cutoff + 1e-9) << org.name;
    }
    break;  // one qualifying org suffices
  }
}

TEST(Resolver, DeterministicGivenRngState) {
  const auto& world = test_world();
  const Resolver resolver(world);
  util::Rng rng_a(9);
  util::Rng rng_b(9);
  const auto origin = resolver.origin_for("ES", false);
  for (int i = 0; i < 50; ++i) {
    const auto domain_id = world.domains()[static_cast<std::size_t>(i) %
                                           world.domains().size()].id;
    const auto a = resolver.resolve(domain_id, origin, rng_a);
    const auto b = resolver.resolve(domain_id, origin, rng_b);
    EXPECT_EQ(a.server, b.server);
  }
}

TEST(Resolver, FullEcsRestoresClientLocation) {
  ResolverOptions with_ecs;
  with_ecs.ecs_adoption = 1.0;
  const Resolver resolver(test_world(), with_ecs);
  const auto origin = resolver.origin_for("DE", true);
  const auto* de = geo::find_country("DE");
  EXPECT_NEAR(origin.effective_location.lat, de->centroid.lat, 1e-9);
  EXPECT_NEAR(origin.effective_location.lon, de->centroid.lon, 1e-9);
}

TEST(Resolver, PartialEcsImprovesLocalityForPublicResolverUsers) {
  // Compare in-country termination for a Spanish public-resolver user
  // with and without ECS over popular multi-pop orgs.
  const auto& world = test_world();
  const auto count_local = [&](double adoption) {
    ResolverOptions options;
    options.ecs_adoption = adoption;
    const Resolver resolver(world, options);
    util::Rng rng(77);
    const auto origin = resolver.origin_for("ES", true);
    std::uint64_t local = 0;
    std::uint64_t total = 0;
    for (const auto& org : world.orgs()) {
      if (org.dns_policy != world::DnsPolicy::NearestPop || org.servers.size() < 6) {
        continue;
      }
      for (int i = 0; i < 20; ++i) {
        const auto answer = resolver.resolve(org.domains.front(), origin, rng);
        ++total;
        if (world.datacenter(world.server(answer.server).datacenter).country == "ES") {
          ++local;
        }
      }
    }
    return total == 0 ? 0.0 : static_cast<double>(local) / static_cast<double>(total);
  };
  EXPECT_GT(count_local(1.0), count_local(0.0));
}

TEST(Resolver, TtlFollowsPopularity) {
  world::Organization big;
  big.popularity = 0.1;
  world::Organization mid;
  mid.popularity = 0.01;
  world::Organization tail;
  tail.popularity = 0.0001;
  EXPECT_EQ(ttl_for(big), 300U);
  EXPECT_EQ(ttl_for(mid), 3600U);
  EXPECT_EQ(ttl_for(tail), 7200U);
}

/// The memoized resolver against the uncached reference, at one ECS
/// adoption level: every (domain, origin) pair, first on a cold memo and
/// then again on the warm one, with the same answer and the same rng
/// state after every query.
class ResolverMemo : public ::testing::TestWithParam<double> {};

TEST_P(ResolverMemo, MatchesTheUncachedReferenceColdAndWarm) {
  const auto& world = test_world();
  ResolverOptions options;
  options.ecs_adoption = GetParam();
  const Resolver resolver(world, options);
  const auto origins = all_origins(resolver);
  for (const std::string pass : {"cold", "warm"}) {
    std::uint64_t key = 0;
    for (const auto& origin : origins) {
      for (const auto& domain : world.domains()) {
        util::Rng want_rng(util::mix64(++key));
        util::Rng got_rng = want_rng;
        const auto want = reference_resolve(world, options, domain.id, origin, want_rng);
        const auto got = resolver.resolve(domain.id, origin, got_rng);
        const auto where = pass + " memo, " + domain.fqdn + " from " +
                           origin.client_country +
                           (origin.via_third_party ? " (public DNS)" : " (ISP DNS)");
        ASSERT_EQ(got.server, want.server) << where;
        ASSERT_EQ(got.ip, want.ip) << where;
        ASSERT_EQ(got.ttl_s, want.ttl_s) << where;
        ASSERT_EQ(got_rng(), want_rng()) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EcsAdoption, ResolverMemo, ::testing::Values(0.0, 0.5, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "ecs" + std::to_string(static_cast<int>(
                                              std::lround(info.param * 100)));
                         });

TEST(ResolverMemoThreads, ConcurrentColdFillMatchesSerialAnswers) {
  // Four pool workers race on the first use of every location table:
  // each query makes its own origin, and the four queries of one origin
  // are adjacent one-query shards, so the workers build the same tables
  // at once and all but one discard theirs. Every answer must equal the
  // one a serial resolver gives for the same query and rng seed.
  const auto& world = test_world();
  ResolverOptions options;
  options.ecs_adoption = 0.5;  // public-DNS origins also bind their home table
  const auto countries = geo::all_countries();
  constexpr std::size_t kRacers = 4;
  const std::size_t queries = countries.size() * 2 * kRacers;
  const auto answer = [&](const Resolver& resolver, std::size_t query) {
    const std::size_t origin = query / kRacers;
    const auto from = resolver.origin_for(countries[origin / 2].code, origin % 2 == 1);
    util::Rng rng(util::mix64(query));
    std::vector<world::ServerId> servers;
    for (const auto& domain : world.domains()) {
      servers.push_back(resolver.resolve(domain.id, from, rng).server);
    }
    return servers;
  };
  const Resolver serial(world, options);
  std::vector<std::vector<world::ServerId>> want(queries);
  for (std::size_t query = 0; query < queries; ++query) want[query] = answer(serial, query);

  const Resolver shared(world, options);
  ASSERT_EQ(shared.route_tables(), 0U);
  runtime::ThreadPool pool(kRacers);
  std::vector<std::vector<world::ServerId>> got(queries);
  runtime::parallel_for(&pool, queries, {.min_shard_items = 1, .max_shards = queries},
                        [&](runtime::ShardRange range, std::size_t /*shard*/) {
                          for (std::size_t i = range.begin; i < range.end; ++i) {
                            got[i] = answer(shared, i);
                          }
                        });
  EXPECT_EQ(got, want);
  // One table per country centroid and per anycast site in use,
  // however many workers built it.
  EXPECT_EQ(shared.route_tables(), serial.route_tables());
  EXPECT_GT(shared.route_tables(), countries.size());
}

/// Property sweep over origin countries: resolution invariants must hold
/// from everywhere, with either resolver type. The country is a
/// std::string, not a const char*: gtest prints a char pointer's address,
/// which ASLR makes differ between processes, and the listed test names
/// carry that print.
class ResolverPerCountry
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(ResolverPerCountry, AnswersAreAlwaysValidServersOfTheDomain) {
  const auto& [country, third_party] = GetParam();
  const auto& world = test_world();
  const Resolver resolver(world);
  util::Rng rng(util::mix64(static_cast<std::uint64_t>(country[0]) + third_party));
  const auto origin = resolver.origin_for(country, third_party);
  const auto tracking = world.tracking_domain_ids();
  for (int i = 0; i < 40; ++i) {
    const auto domain_id = tracking[static_cast<std::size_t>(
        rng.next_below(tracking.size()))];
    const auto answer = resolver.resolve(domain_id, origin, rng);
    const auto& domain = world.domain(domain_id);
    EXPECT_NE(std::find(domain.servers.begin(), domain.servers.end(), answer.server),
              domain.servers.end());
    EXPECT_EQ(world.server(answer.server).ip, answer.ip);
    EXPECT_GE(answer.ttl_s, 300U);
    EXPECT_LE(answer.ttl_s, 7200U);
  }
}

TEST_P(ResolverPerCountry, OriginIsWellFormed) {
  const auto& [country, third_party] = GetParam();
  const Resolver resolver(test_world());
  const auto origin = resolver.origin_for(country, third_party);
  EXPECT_EQ(origin.client_country, country);
  EXPECT_EQ(origin.via_third_party, third_party);
  EXPECT_GE(origin.effective_location.lat, -60.0);
  EXPECT_LE(origin.effective_location.lat, 72.0);
}

INSTANTIATE_TEST_SUITE_P(
    CountriesAndResolvers, ResolverPerCountry,
    ::testing::Combine(::testing::Values<std::string>("DE", "ES", "GB", "GR", "CY", "PL",
                                                      "BR", "US", "JP", "ZA", "RU", "AU"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_public_dns" : "_isp_dns");
    });

}  // namespace
}  // namespace cbwt::dns
