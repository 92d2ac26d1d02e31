// DNS resolution model. Authoritative geo-DNS of each organization maps
// a client to one of the servers deployed for the queried FQDN,
// according to the org's DnsPolicy. Locality is deliberately imperfect:
// real operators balance load and cache coarse mappings, which is why
// the paper finds large headroom for "GDPR-friendly" DNS redirection
// (Table 5). Recursive-resolver choice is also modelled: clients on
// third-party resolvers (Google DNS-style anycast, no ECS) are mapped
// from the resolver's location, the paper's explanation for broadband
// users leaking more than mobile users (§7.3).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/ip.h"
#include "util/prng.h"
#include "world/world.h"

namespace cbwt::dns {

/// The NearestPop routes from one effective location (resolver.cpp).
struct RouteTable;

/// Where a query "appears from" after recursive resolution. Made by
/// Resolver::origin_for, which binds it to that resolver's route tables:
/// resolve it only with the Resolver that made it, while that lives.
struct QueryOrigin {
  std::string client_country;     ///< the actual user's country
  geo::LatLon effective_location; ///< client or resolver location
  bool via_third_party = false;   ///< true when a public resolver was used
  const RouteTable* routes = nullptr;  ///< routes from effective_location
  /// Routes from the client's home centroid, which the queries that
  /// partial ECS adoption sends with the client's subnet use instead;
  /// nullptr unless via_third_party and 0 < ecs_adoption < 1.
  const RouteTable* home_routes = nullptr;
};

/// One answer: which server (and thus IP) the FQDN resolved to.
struct Resolution {
  world::ServerId server = 0;
  net::IpAddress ip;
  std::uint32_t ttl_s = 300;
};

struct ResolverOptions {
  /// NearestPop only ever answers from the `serving_radius` nearest
  /// deployments (real geo-DNS maps a client to its serving region; it
  /// never hands a European eyeball a Tokyo replica). This is also what
  /// leaves remote replicas invisible to a geographically concentrated
  /// user base until pDNS replication surfaces them (§3.3).
  std::size_t serving_radius = 2;
  /// Softness of the latency preference inside the serving radius
  /// (weight ~ 1/(delay_ms + delay_floor)^gamma). Operators load-balance
  /// rather than strictly minimize distance, which is exactly the
  /// headroom the paper's DNS-redirection what-if exploits (§5.1).
  double gamma = 3.0;
  double delay_floor_ms = 2.0;
  /// Relative weight multiplier of shared ad-exchange servers, which
  /// answer for many domains but carry a minority of each one's traffic.
  double exchange_damping = 0.30;
  /// Share of public-resolver queries carrying EDNS-Client-Subnet: with
  /// ECS the authoritative side sees the *client's* network, restoring
  /// locality that anycast resolvers otherwise destroy (paper ref [59]).
  double ecs_adoption = 0.0;
};

/// Policy-based server selection over a World.
///
/// The per-query work that depends only on the world is done once. The
/// constructor groups each NearestPop domain's servers into sites and
/// builds each HqOnly domain's DiscreteSampler. The rest depends on the
/// effective location: a RouteTable holds, for every NearestPop domain,
/// the serving-radius sites nearest that location with their latency
/// weights. origin_for builds the tables its origin needs on first use
/// and binds them to the origin, so resolve() takes no lock, does no
/// lookup keyed by location and writes no shared state. Tables hold the
/// exact doubles the uncached computation produces and are sampled with
/// the same draws, so every answer and every rng state is the same as
/// without them. Both calls are safe from many threads on one Resolver.
class Resolver {
 public:
  explicit Resolver(const world::World& world, ResolverOptions options = {});
  ~Resolver();

  Resolver(const Resolver&) = delete;
  Resolver& operator=(const Resolver&) = delete;

  /// Computes the effective query origin for a user in `country`.
  /// Third-party-resolver clients appear from the nearest public-resolver
  /// anycast site instead of their own location.
  [[nodiscard]] QueryOrigin origin_for(std::string_view country,
                                       bool third_party_resolver) const;

  /// Resolves a tracker FQDN for an origin this resolver made.
  /// Deterministic given the Rng state.
  [[nodiscard]] Resolution resolve(world::DomainId domain, const QueryOrigin& origin,
                                   util::Rng& rng) const;

  /// Location route tables built so far (at most one per country
  /// centroid and per public-resolver anycast site).
  [[nodiscard]] std::size_t route_tables() const noexcept;

  [[nodiscard]] const world::World& world() const noexcept { return *world_; }

 private:
  /// The servers of one site of a NearestPop domain, a slice of members_
  /// (indices into the domain's server list).
  struct SiteMembers {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };
  /// One datacenter of a NearestPop domain, in the order the domain's
  /// server list first names it.
  struct Site {
    world::DatacenterId dc = 0;
    bool exchange_only = true;  ///< every member is a shared ad exchange
    SiteMembers members;
  };
  /// A domain's sites: a slice of sites_, empty unless NearestPop.
  struct DomainSites {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  /// The table for one effective location, built on first use. `slot`
  /// indexes tables_; every location has one fixed slot.
  [[nodiscard]] const RouteTable& table(std::size_t slot, const geo::LatLon& location) const;
  [[nodiscard]] std::unique_ptr<RouteTable> build_table(const geo::LatLon& location) const;
  [[nodiscard]] std::size_t pick_nearest_pop(world::DomainId domain, const RouteTable& routes,
                                             util::Rng& rng) const;

  const world::World* world_;
  ResolverOptions options_;

  std::vector<DomainSites> domain_sites_;  ///< one per domain id
  std::vector<Site> sites_;
  std::vector<std::uint32_t> members_;
  /// One per domain id; empty unless the domain is HqOnly.
  std::vector<util::DiscreteSampler> hq_routes_;
  /// One slot per country centroid, then one per anycast site: null
  /// until the table is published by a single compare_exchange. Owned.
  std::unique_ptr<std::atomic<const RouteTable*>[]> tables_;
};

/// TTL assignment: the busiest orgs re-map quickly (300 s, like Google),
/// the tail uses lazy multi-hour TTLs (like Facebook's 7200 s).
[[nodiscard]] std::uint32_t ttl_for(const world::Organization& org) noexcept;

}  // namespace cbwt::dns
