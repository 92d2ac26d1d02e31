#include "dns/resolver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "geo/country.h"
#include "util/contract.h"

namespace cbwt::dns {

/// Two-level selection, the way geo-DNS load balancers work: pick a
/// *site* among the `serving_radius` nearest distinct datacenters
/// (latency-weighted, soft), then a server within the site. A table
/// holds the first level for every NearestPop domain from one location.
struct RouteTable {
  /// One domain's serving-radius sites, nearest first: max(radius, 1)
  /// entries of the pools from `first` (a zero radius still answers from
  /// the nearest site).
  struct Route {
    std::uint32_t first = 0;
    std::uint32_t radius = 0;
  };
  std::vector<Route> routes;         ///< one per domain id
  std::vector<double> weights;       ///< latency weight of each route site
  std::vector<std::uint32_t> sites;  ///< the site, an index into Resolver::sites_
};

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

/// Route-table slots: one per country centroid, then one per anycast site.
std::size_t location_slots() noexcept {
  return geo::all_countries().size() + kAnycastSites.size();
}

}  // namespace

Resolver::Resolver(const world::World& world, ResolverOptions options)
    : world_(&world),
      options_(options),
      domain_sites_(world.domains().size()),
      hq_routes_(world.domains().size()),
      tables_(std::make_unique<std::atomic<const RouteTable*>[]>(location_slots())) {
  for (const auto& dom : world.domains()) {
    if (dom.servers.empty()) continue;  // resolve() rejects these first
    const auto& org = world.org(dom.org);
    if (org.dns_policy == world::DnsPolicy::HqOnly) {
      // Prefer servers at the HQ; fall back to anything.
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
      hq_routes_[dom.id] = util::DiscreteSampler(weights);
    } else if (org.dns_policy == world::DnsPolicy::NearestPop) {
      const auto first = static_cast<std::uint32_t>(sites_.size());
      for (const auto sid : dom.servers) {
        const auto& server = world.server(sid);
        auto it = std::find_if(sites_.begin() + first, sites_.end(), [&](const Site& site) {
          return site.dc == server.datacenter;
        });
        if (it == sites_.end()) {
          it = sites_.insert(sites_.end(), Site{});
          it->dc = server.datacenter;
        }
        if (!server.shared_exchange) it->exchange_only = false;
      }
      for (std::size_t s = first; s < sites_.size(); ++s) {
        SiteMembers& members = sites_[s].members;
        members.begin = static_cast<std::uint32_t>(members_.size());
        for (std::size_t i = 0; i < dom.servers.size(); ++i) {
          if (world.server(dom.servers[i]).datacenter == sites_[s].dc) {
            members_.push_back(static_cast<std::uint32_t>(i));
          }
        }
        members.count = static_cast<std::uint32_t>(members_.size() - members.begin);
      }
      domain_sites_[dom.id] = {first, static_cast<std::uint32_t>(sites_.size() - first)};
    }
  }
}

Resolver::~Resolver() {
  for (std::size_t slot = 0; slot < location_slots(); ++slot) delete tables_[slot].load();
}

QueryOrigin Resolver::origin_for(std::string_view country,
                                 bool third_party_resolver) const {
  const geo::Country* home = geo::find_country(country);
  if (home == nullptr) throw std::invalid_argument("unknown country code");
  const auto home_slot = static_cast<std::size_t>(home - geo::all_countries().data());
  QueryOrigin origin;
  origin.client_country = std::string(country);
  origin.via_third_party = third_party_resolver;
  // Full EDNS-Client-Subnet deployment: the authoritative DNS sees the
  // client's own network even through the public resolver.
  if (!third_party_resolver || options_.ecs_adoption >= 1.0) {
    origin.effective_location = home->centroid;
    origin.routes = &table(home_slot, home->centroid);
    return origin;
  }
  // Anycast routes the client to the nearest public-resolver site; the
  // authoritative side then only sees that site (no ECS).
  double best = 1e18;
  std::size_t nearest = 0;
  for (std::size_t i = 0; i < kAnycastSites.size(); ++i) {
    const double d = geo::distance_km(home->centroid, kAnycastSites[i].location);
    if (d < best) {
      best = d;
      nearest = i;
    }
  }
  origin.effective_location = kAnycastSites[nearest].location;
  origin.routes = &table(geo::all_countries().size() + nearest, origin.effective_location);
  if (options_.ecs_adoption > 0.0) origin.home_routes = &table(home_slot, home->centroid);
  return origin;
}

Resolution Resolver::resolve(world::DomainId domain, const QueryOrigin& origin,
                             util::Rng& rng) const {
  const auto& dom = world_->domain(domain);
  if (dom.servers.empty()) throw std::logic_error("domain without deployments");
  const auto& org = world_->org(dom.org);
  CBWT_EXPECTS(origin.routes != nullptr);  // the origin came from origin_for

  // Partial ECS adoption: some queries through a public resolver still
  // reach the authoritative side with the client's subnet attached.
  const RouteTable* routes = origin.routes;
  if (origin.home_routes != nullptr && rng.chance(options_.ecs_adoption)) {
    routes = origin.home_routes;
  }

  std::size_t chosen = 0;
  switch (org.dns_policy) {
    case world::DnsPolicy::RandomPop:
      chosen = static_cast<std::size_t>(rng.next_below(dom.servers.size()));
      break;
    case world::DnsPolicy::HqOnly:
      chosen = hq_routes_[domain].sample(rng);
      break;
    case world::DnsPolicy::NearestPop:
      chosen = pick_nearest_pop(domain, *routes, rng);
      break;
  }

  Resolution result;
  result.server = dom.servers[chosen];
  result.ip = world_->server(result.server).ip;
  result.ttl_s = ttl_for(org);
  return result;
}

std::size_t Resolver::route_tables() const noexcept {
  std::size_t built = 0;
  for (std::size_t slot = 0; slot < location_slots(); ++slot) {
    if (tables_[slot].load(std::memory_order_acquire) != nullptr) ++built;
  }
  return built;
}

std::size_t Resolver::pick_nearest_pop(world::DomainId domain, const RouteTable& routes,
                                       util::Rng& rng) const {
  const RouteTable::Route& route = routes.routes[domain];
  const std::span<const double> weights(routes.weights.data() + route.first, route.radius);
  const SiteMembers& site =
      sites_[routes.sites[route.first + util::sample_discrete(rng, weights)]].members;
  return members_[site.begin + static_cast<std::size_t>(rng.next_below(site.count))];
}

const RouteTable& Resolver::table(std::size_t slot, const geo::LatLon& location) const {
  std::atomic<const RouteTable*>& entry = tables_[slot];
  const RouteTable* published = entry.load(std::memory_order_acquire);
  if (published != nullptr) return *published;
  auto built = build_table(location);
  if (entry.compare_exchange_strong(published, built.get(), std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return *built.release();
  }
  // Another thread published first; every build of a location is
  // identical, so its table answers exactly as this one would.
  return *published;
}

std::unique_ptr<RouteTable> Resolver::build_table(const geo::LatLon& location) const {
  const auto& datacenters = world_->datacenters();
  std::vector<double> delay(datacenters.size());
  for (std::size_t dc = 0; dc < datacenters.size(); ++dc) {
    delay[dc] = geo::propagation_delay_ms(location, datacenters[dc].location);
  }
  auto table = std::make_unique<RouteTable>();
  table->routes.resize(domain_sites_.size());
  struct Keyed {
    double delay = 0.0;
    std::uint32_t site = 0;
  };
  std::vector<Keyed> order;
  for (std::size_t d = 0; d < domain_sites_.size(); ++d) {
    const DomainSites& slice = domain_sites_[d];
    if (slice.count == 0) continue;
    order.clear();
    for (std::uint32_t s = slice.first; s < slice.first + slice.count; ++s) {
      order.push_back({delay[sites_[s].dc], s});
    }
    // The same delays in the same first-appearance order through the
    // same std::sort as the uncached computation: ties land alike.
    std::sort(order.begin(), order.end(),
              [](const Keyed& a, const Keyed& b) { return a.delay < b.delay; });
    const std::size_t radius = std::min<std::size_t>(options_.serving_radius, slice.count);
    table->routes[d] = {static_cast<std::uint32_t>(table->weights.size()),
                        static_cast<std::uint32_t>(radius)};
    for (std::size_t i = 0; i < std::max<std::size_t>(radius, 1); ++i) {
      double weight =
          1.0 / std::pow(order[i].delay + options_.delay_floor_ms, options_.gamma);
      if (sites_[order[i].site].exchange_only) weight *= options_.exchange_damping;
      table->weights.push_back(weight);
      table->sites.push_back(order[i].site);
    }
  }
  return table;
}

std::uint32_t ttl_for(const world::Organization& org) noexcept {
  if (org.popularity > 0.02) return 300;
  if (org.popularity > 0.005) return 3600;
  return 7200;
}

}  // namespace cbwt::dns
