// Browser-extension data collection. Simulates real users' browsers
// fully rendering publisher pages: entry tags (ad networks, analytics,
// clean widgets) fire first, then the ad-tech chain unfolds — RTB bid
// requests to DSPs, cookie-sync cascades between sync services — with
// the referrer header propagating down the chain. The collected record
// schema matches the paper's extension: user country, first-party
// domain, third-party URL, contacted server IP (§3.1).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/resolver.h"
#include "net/ip.h"
#include "pdns/store.h"
#include "rtb/auction.h"
#include "util/arena.h"
#include "util/prng.h"
#include "util/transparent_hash.h"
#include "world/world.h"

namespace cbwt::browser {

/// One logged third-party request. `url` and `referrer` view the text of
/// the ExtensionDataset that logged the request.
struct ThirdPartyRequest {
  world::UserId user = 0;
  world::PublisherId publisher = 0;
  world::DomainId domain = 0;     ///< ground-truth domain (hidden from classifier)
  std::string_view url;           ///< full third-party URL (lower-case)
  std::string_view referrer;      ///< "" | first-party URL | chain parent URL
  net::IpAddress server_ip;
  pdns::Day day = 0;
  std::uint8_t chain_depth = 0;   ///< 0 = embedded tag, 1+ = chained
  bool https = true;
  bool interaction_triggered = false;  ///< fired only because a real user
                                       ///< scrolled the slot into view
};

/// The full collection run of the recruited users.
///
/// Every request's url and referrer view `text`, where collection stores
/// no URL twice on purpose: a chained request's referrer is its parent's
/// url view, a visit's page URL is stored once for all of its entry
/// requests, and a URL without a random id (a tag version, an app
/// bundle, a widget embed) once per run. The buffer is append-only, so
/// views stay valid as it grows, and copies of a dataset share it, so a
/// copy's views outlive the original. Appending through two copies at
/// once is a data race; reading is not.
struct ExtensionDataset {
  std::vector<ThirdPartyRequest> requests;
  std::uint64_t first_party_visits = 0;
  std::uint64_t distinct_publishers = 0;
  std::shared_ptr<util::Arena> text;  ///< null until the first add_text

  /// Appends `bytes` to `text` and returns the view a request may hold.
  std::string_view add_text(std::string_view bytes);

  [[nodiscard]] std::size_t size() const noexcept { return requests.size(); }
};

struct CollectorConfig {
  pdns::Day window_start = 0;
  pdns::Day window_end = 135;
  /// Exchange/auction behaviour (client-side header-bidding style, so
  /// every bid request is a browser-visible flow, §2.2).
  rtb::AuctionConfig auction;
  /// Real users interact with pages (scroll, view ads); scripted crawlers
  /// do not — flipping this off is the crawler-vs-real-user ablation.
  bool user_interaction = true;
  /// Share of tracking requests on HTTPS (paper: 83.14%).
  double https_share = 0.8314;
};

/// Renders pages for every extension user over the study window and
/// returns the dataset. When `pdns_feed` is non-null, every resolution
/// the users' browsers perform is also replicated into the store.
[[nodiscard]] ExtensionDataset collect_extension_dataset(const world::World& world,
                                                         const dns::Resolver& resolver,
                                                         const CollectorConfig& config,
                                                         util::Rng& rng,
                                                         pdns::Store* pdns_feed = nullptr);

/// Per publisher id, the bit set of its topic ids (the taxonomy has 28).
[[nodiscard]] std::vector<std::uint32_t> publisher_topic_masks(const world::World& world);

/// Publisher choice weights of one user: popularity, tripled for a topic
/// the user is interested in and quintupled for the user's own country.
/// A user's visits draw their publishers from these weights.
/// `publisher_masks` is publisher_topic_masks(world), which a collection
/// run computes once; the two-argument form computes it itself.
[[nodiscard]] std::vector<double> publisher_weights(
    const world::World& world, std::span<const std::uint32_t> publisher_masks,
    const world::ExtensionUser& user);
[[nodiscard]] std::vector<double> publisher_weights(const world::World& world,
                                                    const world::ExtensionUser& user);

/// Draws the bidders of an auction and the partners of a sync cascade:
/// up to `count` distinct orgs of `role`, popularity-weighted, with a 4x
/// boost for orgs whose home market is `local_country` (geo-targeted
/// campaigns pull local bidders and sync partners in). Each (role,
/// country) pool and its sampler are built on first use and kept, so a
/// collection run scans the orgs once per pool, not once per draw. Not
/// thread-safe.
class OrgSampler {
 public:
  explicit OrgSampler(const world::World& world) : world_(world) {}

  [[nodiscard]] std::vector<world::OrgId> sample(world::OrgRole role, std::size_t count,
                                                 std::string_view local_country,
                                                 util::Rng& rng);

 private:
  struct Pool {
    std::vector<world::OrgId> orgs;
    util::DiscreteSampler sampler;
  };

  const world::World& world_;
  std::array<util::StringMap<Pool>, 5> pools_;  ///< by OrgRole value, then country
};

/// Renders a single visit into `out` (exposed for tests and examples).
/// `jar` holds the user's cookie/sync state and persists across visits;
/// pass nullptr for a throwaway jar.
void render_visit(const world::World& world, const dns::Resolver& resolver,
                  const world::ExtensionUser& user, const world::Publisher& publisher,
                  pdns::Day day, const CollectorConfig& config, util::Rng& rng,
                  ExtensionDataset& out, pdns::Store* pdns_feed = nullptr,
                  rtb::CookieJar* jar = nullptr);

}  // namespace cbwt::browser
