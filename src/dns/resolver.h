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

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/ip.h"
#include "util/prng.h"
#include "util/thread_annotations.h"
#include "world/world.h"

namespace cbwt::dns {

/// Where a query "appears from" after recursive resolution.
struct QueryOrigin {
  std::string client_country;     ///< the actual user's country
  geo::LatLon effective_location; ///< client or resolver location
  bool via_third_party = false;   ///< true when a public resolver was used
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
/// The per-query work that depends only on the world is memoized on first
/// use: a NearestPop domain seen from one effective location keeps its
/// serving-radius sites, their latency weights and their member servers,
/// and an HqOnly domain keeps a DiscreteSampler over its HQ weights. The
/// memo holds the exact doubles the uncached computation produces and is
/// sampled with the same draws, so every answer and every rng state is
/// the same as without it. The memo is filled under an internal mutex:
/// resolve() is safe to call from many threads on one Resolver.
class Resolver {
 public:
  explicit Resolver(const world::World& world, ResolverOptions options = {});

  /// Computes the effective query origin for a user in `country`.
  /// Third-party-resolver clients appear from the nearest public-resolver
  /// anycast site instead of their own location.
  [[nodiscard]] QueryOrigin origin_for(std::string_view country,
                                       bool third_party_resolver) const;

  /// Resolves a tracker FQDN for the given origin. Deterministic given
  /// the Rng state.
  [[nodiscard]] Resolution resolve(world::DomainId domain, const QueryOrigin& origin,
                                   util::Rng& rng) const;

  [[nodiscard]] const world::World& world() const noexcept { return *world_; }

 private:
  /// The serving-radius sites of one NearestPop domain from one location,
  /// nearest first: a slice of site_weights_ / site_members_ holding
  /// max(radius, 1) sites (a zero radius still answers from the nearest).
  struct NearRoute {
    static constexpr std::uint32_t kUnbuilt = ~std::uint32_t{0};
    std::uint32_t first_site = kUnbuilt;
    std::uint32_t radius = 0;
  };
  /// The servers of one site, a slice of members_ (indices into the
  /// domain's server list).
  struct SiteMembers {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  [[nodiscard]] std::size_t pick_nearest_pop(world::DomainId domain,
                                             const geo::LatLon& location,
                                             util::Rng& rng) const CBWT_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t pick_hq_only(world::DomainId domain, util::Rng& rng) const
      CBWT_EXCLUDES(mutex_);
  [[nodiscard]] NearRoute build_near_route(world::DomainId domain,
                                           const geo::LatLon& location) const
      CBWT_REQUIRES(mutex_);

  const world::World* world_;
  ResolverOptions options_;

  mutable util::Mutex mutex_;
  /// Effective location -> row of near_routes_.
  mutable std::map<geo::LatLon, std::size_t> location_rows_ CBWT_GUARDED_BY(mutex_);
  /// One row per location, one entry per domain id.
  mutable std::vector<std::vector<NearRoute>> near_routes_ CBWT_GUARDED_BY(mutex_);
  mutable std::vector<double> site_weights_ CBWT_GUARDED_BY(mutex_);
  mutable std::vector<SiteMembers> site_members_ CBWT_GUARDED_BY(mutex_);
  mutable std::vector<std::uint32_t> members_ CBWT_GUARDED_BY(mutex_);
  mutable std::unordered_map<world::DomainId, util::DiscreteSampler> hq_routes_
      CBWT_GUARDED_BY(mutex_);
};

/// TTL assignment: the busiest orgs re-map quickly (300 s, like Google),
/// the tail uses lazy multi-hour TTLs (like Facebook's 7200 s).
[[nodiscard]] std::uint32_t ttl_for(const world::Organization& org) noexcept;

}  // namespace cbwt::dns
