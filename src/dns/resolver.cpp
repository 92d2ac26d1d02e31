#include "dns/resolver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "geo/country.h"

namespace cbwt::dns {

namespace {

/// Public-resolver anycast sites (Google-DNS/Quad9-style): queries from
/// third-party-resolver clients effectively originate here.
struct AnycastSite {
  std::string_view country;
  geo::LatLon location;
};
constexpr std::array<AnycastSite, 4> kAnycastSites = {{
    {"NL", {52.4, 4.9}},    // Amsterdam
    {"US", {39.0, -77.5}},  // Ashburn
    {"SG", {1.3, 103.8}},   // Singapore
    {"BR", {-23.5, -46.6}}, // Sao Paulo
}};

}  // namespace

Resolver::Resolver(const world::World& world, ResolverOptions options)
    : world_(&world), options_(options) {}

QueryOrigin Resolver::origin_for(std::string_view country,
                                 bool third_party_resolver) const {
  const geo::Country* home = geo::find_country(country);
  if (home == nullptr) throw std::invalid_argument("unknown country code");
  QueryOrigin origin;
  origin.client_country = std::string(country);
  origin.via_third_party = third_party_resolver;
  if (!third_party_resolver) {
    origin.effective_location = home->centroid;
    return origin;
  }
  if (options_.ecs_adoption >= 1.0) {
    // Full EDNS-Client-Subnet deployment: the authoritative DNS sees the
    // client's own network even through the public resolver.
    origin.effective_location = home->centroid;
    return origin;
  }
  // Anycast routes the client to the nearest public-resolver site; the
  // authoritative side then only sees that site (no ECS).
  double best = 1e18;
  for (const auto& site : kAnycastSites) {
    const double d = geo::distance_km(home->centroid, site.location);
    if (d < best) {
      best = d;
      origin.effective_location = site.location;
    }
  }
  return origin;
}

Resolution Resolver::resolve(world::DomainId domain, const QueryOrigin& origin,
                             util::Rng& rng) const {
  const auto& dom = world_->domain(domain);
  if (dom.servers.empty()) throw std::logic_error("domain without deployments");
  const auto& org = world_->org(dom.org);

  // Partial ECS adoption: some queries through a public resolver still
  // reach the authoritative side with the client's subnet attached.
  const geo::LatLon* location = &origin.effective_location;
  if (origin.via_third_party && options_.ecs_adoption > 0.0 &&
      options_.ecs_adoption < 1.0 && rng.chance(options_.ecs_adoption)) {
    if (const geo::Country* home = geo::find_country(origin.client_country)) {
      location = &home->centroid;
    }
  }

  std::size_t chosen = 0;
  switch (org.dns_policy) {
    case world::DnsPolicy::RandomPop:
      chosen = static_cast<std::size_t>(rng.next_below(dom.servers.size()));
      break;
    case world::DnsPolicy::HqOnly:
      chosen = pick_hq_only(domain, rng);
      break;
    case world::DnsPolicy::NearestPop:
      chosen = pick_nearest_pop(domain, *location, rng);
      break;
  }

  Resolution result;
  result.server = dom.servers[chosen];
  result.ip = world_->server(result.server).ip;
  result.ttl_s = ttl_for(org);
  return result;
}

std::size_t Resolver::pick_hq_only(world::DomainId domain, util::Rng& rng) const {
  util::MutexLock lock(mutex_);
  auto it = hq_routes_.find(domain);
  if (it == hq_routes_.end()) {
    // Prefer servers at the HQ; fall back to anything.
    const auto& dom = world_->domain(domain);
    const auto& org = world_->org(dom.org);
    std::vector<double> weights(dom.servers.size(), 0.0);
    bool any = false;
    for (std::size_t i = 0; i < dom.servers.size(); ++i) {
      const auto& server = world_->server(dom.servers[i]);
      if (world_->datacenter(server.datacenter).country == org.hq_country) {
        weights[i] = 1.0;
        any = true;
      }
    }
    if (!any) {
      for (auto& w : weights) w = 1.0;
    }
    it = hq_routes_.emplace(domain, util::DiscreteSampler(weights)).first;
  }
  return it->second.sample(rng);
}

std::size_t Resolver::pick_nearest_pop(world::DomainId domain, const geo::LatLon& location,
                                       util::Rng& rng) const {
  util::MutexLock lock(mutex_);
  const auto [row, added] = location_rows_.try_emplace(location, near_routes_.size());
  if (added) near_routes_.emplace_back(world_->domains().size());
  NearRoute& route = near_routes_[row->second][domain];
  if (route.first_site == NearRoute::kUnbuilt) route = build_near_route(domain, location);
  const std::span<const double> weights(site_weights_.data() + route.first_site,
                                        route.radius);
  const SiteMembers& site =
      site_members_[route.first_site + util::sample_discrete(rng, weights)];
  return members_[site.begin + static_cast<std::size_t>(rng.next_below(site.count))];
}

Resolver::NearRoute Resolver::build_near_route(world::DomainId domain,
                                               const geo::LatLon& location) const {
  // Two-level selection, the way geo-DNS load balancers work: pick a
  // *site* among the `serving_radius` nearest distinct datacenters
  // (latency-weighted, soft), then a server within the site.
  struct Site {
    world::DatacenterId dc;
    double delay = 0.0;
    bool exchange_only = true;
    std::vector<std::size_t> member_indices;
  };
  const auto& dom = world_->domain(domain);
  std::vector<Site> sites;
  for (std::size_t i = 0; i < dom.servers.size(); ++i) {
    const auto& server = world_->server(dom.servers[i]);
    auto it = std::find_if(sites.begin(), sites.end(), [&](const Site& site) {
      return site.dc == server.datacenter;
    });
    if (it == sites.end()) {
      Site site;
      site.dc = server.datacenter;
      site.delay = geo::propagation_delay_ms(
          location, world_->datacenter(server.datacenter).location);
      sites.push_back(std::move(site));
      it = sites.end() - 1;
    }
    it->member_indices.push_back(i);
    if (!server.shared_exchange) it->exchange_only = false;
  }
  std::sort(sites.begin(), sites.end(),
            [](const Site& a, const Site& b) { return a.delay < b.delay; });
  const std::size_t radius = std::min(options_.serving_radius, sites.size());

  NearRoute route;
  route.first_site = static_cast<std::uint32_t>(site_weights_.size());
  route.radius = static_cast<std::uint32_t>(radius);
  for (std::size_t i = 0; i < std::max<std::size_t>(radius, 1); ++i) {
    double weight = 1.0 / std::pow(sites[i].delay + options_.delay_floor_ms, options_.gamma);
    if (sites[i].exchange_only) weight *= options_.exchange_damping;
    site_weights_.push_back(weight);
    site_members_.push_back({static_cast<std::uint32_t>(members_.size()),
                             static_cast<std::uint32_t>(sites[i].member_indices.size())});
    for (const std::size_t member : sites[i].member_indices) {
      members_.push_back(static_cast<std::uint32_t>(member));
    }
  }
  return route;
}

std::uint32_t ttl_for(const world::Organization& org) noexcept {
  if (org.popularity > 0.02) return 300;
  if (org.popularity > 0.005) return 3600;
  return 7200;
}

}  // namespace cbwt::dns
