// Browser-extension data collection. Simulates real users' browsers
// fully rendering publisher pages: entry tags (ad networks, analytics,
// clean widgets) fire first, then the ad-tech chain unfolds — RTB bid
// requests to DSPs, cookie-sync cascades between sync services — with
// the referrer header propagating down the chain. The collected record
// schema matches the paper's extension: user country, first-party
// domain, third-party URL, contacted server IP (§3.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dns/resolver.h"
#include "net/ip.h"
#include "pdns/store.h"
#include "rtb/auction.h"
#include "util/prng.h"
#include "world/world.h"

namespace cbwt::browser {

/// One logged third-party request.
struct ThirdPartyRequest {
  world::UserId user = 0;
  world::PublisherId publisher = 0;
  world::DomainId domain = 0;     ///< ground-truth domain (hidden from classifier)
  std::string url;                ///< full third-party URL (lower-case)
  std::string referrer;           ///< "" | first-party URL | chain parent URL
  net::IpAddress server_ip;
  pdns::Day day = 0;
  std::uint8_t chain_depth = 0;   ///< 0 = embedded tag, 1+ = chained
  bool https = true;
  bool interaction_triggered = false;  ///< fired only because a real user
                                       ///< scrolled the slot into view
};

/// The full collection run of the recruited users.
struct ExtensionDataset {
  std::vector<ThirdPartyRequest> requests;
  std::uint64_t first_party_visits = 0;
  std::uint64_t distinct_publishers = 0;

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

/// Publisher choice weights of one user: popularity, tripled for a topic
/// the user is interested in and quintupled for the user's own country.
/// A user's visits draw their publishers from these weights.
[[nodiscard]] std::vector<double> publisher_weights(const world::World& world,
                                                    const world::ExtensionUser& user);

/// Renders a single visit (exposed for tests and examples). `jar` holds
/// the user's cookie/sync state and persists across visits; pass nullptr
/// for a throwaway jar.
void render_visit(const world::World& world, const dns::Resolver& resolver,
                  const world::ExtensionUser& user, const world::Publisher& publisher,
                  pdns::Day day, const CollectorConfig& config, util::Rng& rng,
                  std::vector<ThirdPartyRequest>& out, pdns::Store* pdns_feed = nullptr,
                  rtb::CookieJar* jar = nullptr);

}  // namespace cbwt::browser
