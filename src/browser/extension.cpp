#include "browser/extension.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <unordered_set>

#include "rtb/openrtb.h"
#include "world/topics.h"

namespace cbwt::browser {

namespace {

using world::OrgRole;

constexpr std::array<std::string_view, 5> kSyncKeywords = {
    "usermatch", "cookiesync", "uid_sync", "cm", "idsync"};

std::string scheme_for(bool https) { return https ? "https://" : "http://"; }

/// Builds the URL of a request to `domain`, shaped by the org role. Ad
/// paths carry the tokens easylist's generic rules look for; sync/DSP
/// URLs carry the argument keywords stage-2 classification keys on.
std::string build_url(const world::World& world, const world::TrackerDomain& domain,
                      const world::Publisher& publisher, bool https, util::Rng& rng) {
  const auto& org = world.org(domain.org);
  std::string url = scheme_for(https) + domain.fqdn;
  const auto id = rng.next_below(1'000'000);
  switch (org.role) {
    case OrgRole::AdNetwork: {
      const double roll = rng.next_double();
      if (roll < 0.4) {
        url += "/ads/display/" + std::to_string(id) + "?pub=" + publisher.domain +
               "&ad_slot=" + std::to_string(rng.next_below(8));
      } else if (roll < 0.7) {
        url += "/banner/" + std::to_string(id) + "/img?size=300x250";
      } else {
        url += "/adserve/tag.js?v=" + std::to_string(rng.next_below(100));
      }
      break;
    }
    case OrgRole::Analytics: {
      if (rng.chance(0.7)) {
        url += "/collect?sid=" + std::to_string(id) + "&ev=pageview";
      } else {
        url += "/beacon?t=" + std::to_string(id);
      }
      break;
    }
    case OrgRole::Dsp: {
      url += "/bid?auction=" + std::to_string(id) +
             "&price=" + std::to_string(rng.next_below(500));
      if (domain.keyword_urls) url += "&rtb=2.5";
      break;
    }
    case OrgRole::SyncService: {
      const auto keyword = kSyncKeywords[static_cast<std::size_t>(
          rng.next_below(kSyncKeywords.size()))];
      url += "/pixel?" + std::string(keyword) + "=1&uid=" + std::to_string(id);
      break;
    }
    case OrgRole::CleanService: {
      const double roll = rng.next_double();
      if (roll < 0.4) {
        url += "/widget/embed?site=" + publisher.domain;
      } else if (roll < 0.7) {
        url += "/assets/app-" + std::to_string(rng.next_below(50)) + ".js";
      } else {
        url += "/api/v1/messages?channel=" + std::to_string(id);
      }
      break;
    }
  }
  return url;
}

/// Samples a few distinct org ids of `role`, popularity-weighted, with a
/// boost for orgs whose home market is `local_country` (geo-targeted
/// campaigns pull local bidders and sync partners into the auction).
std::vector<world::OrgId> sample_orgs(const world::World& world, OrgRole role,
                                      std::size_t count, std::string_view local_country,
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

class VisitRenderer {
 public:
  VisitRenderer(const world::World& world, const dns::Resolver& resolver,
                const world::ExtensionUser& user, const world::Publisher& publisher,
                pdns::Day day, const CollectorConfig& config, util::Rng& rng,
                std::vector<ThirdPartyRequest>& out, pdns::Store* pdns_feed,
                rtb::CookieJar& jar)
      : world_(world), resolver_(resolver), user_(user), publisher_(publisher), day_(day),
        config_(config), rng_(rng), out_(out), pdns_feed_(pdns_feed), jar_(jar),
        engine_(world, resolver, config.auction),
        origin_(resolver.origin_for(user.country, user.third_party_resolver)) {}

  void run() {
    const std::string page_url = "https://" + publisher_.domain + "/";
    for (const auto tag_domain : publisher_.embedded_tags) {
      emit_tag(tag_domain, page_url);
    }
  }

 private:
  /// Issues `count` requests to one domain and returns the URL of the
  /// last one (the chain parent for children).
  std::string request_burst(world::DomainId domain_id, const std::string& referrer,
                            std::uint8_t depth, std::size_t count,
                            bool interaction_gated) {
    const auto& domain = world_.domain(domain_id);
    std::string last_url;
    for (std::size_t i = 0; i < count; ++i) {
      if (interaction_gated && !config_.user_interaction) continue;
      ThirdPartyRequest request;
      request.user = user_.id;
      request.publisher = publisher_.id;
      request.domain = domain_id;
      request.day = day_;
      request.chain_depth = depth;
      request.https = rng_.chance(config_.https_share);
      request.interaction_triggered = interaction_gated;
      request.url = build_url(world_, domain, publisher_, request.https, rng_);
      request.referrer = referrer;

      const auto answer = resolver_.resolve(domain_id, origin_, rng_);
      request.server_ip = answer.ip;
      if (pdns_feed_ != nullptr) {
        pdns_feed_->observe(domain.fqdn, domain.registrable, answer.ip, day_);
      }
      // Any contacted tracking org can set its own first-contact cookie.
      if (world_.org(domain.org).role != OrgRole::CleanService) {
        (void)jar_.ensure_id(domain.org, rng_);
      }
      last_url = request.url;
      out_.push_back(std::move(request));
    }
    return last_url;
  }

  void emit_tag(world::DomainId tag_domain, const std::string& page_url) {
    const auto& domain = world_.domain(tag_domain);
    const auto& org = world_.org(domain.org);
    switch (org.role) {
      case OrgRole::AdNetwork: {
        // Tag load + creative/static fetches, referrer = first party.
        const std::size_t burst = 3 + static_cast<std::size_t>(rng_.next_below(5));
        const std::string entry_url = request_burst(tag_domain, page_url, 0, burst, false);
        if (entry_url.empty()) break;
        run_auction(entry_url, org.id);
        break;
      }
      case OrgRole::Analytics: {
        request_burst(tag_domain, page_url, 0,
                      1 + static_cast<std::size_t>(rng_.next_below(3)), false);
        break;
      }
      case OrgRole::CleanService: {
        request_burst(tag_domain, page_url, 0,
                      2 + static_cast<std::size_t>(rng_.next_below(7)), false);
        break;
      }
      default:
        // DSP/sync domains are never embedded directly by publishers.
        request_burst(tag_domain, page_url, 0, 1, false);
        break;
    }
  }

  /// The RTB cascade behind one ad slot, run through the OpenRTB-style
  /// auction engine (client-side header bidding, so every bid request is
  /// a browser-visible flow). Winner fetches creative + win notice and,
  /// when unsynced, kicks off a cookie-sync cascade; a slice of the
  /// cascade only fires when the slot scrolls into view.
  void run_auction(const std::string& entry_url, world::OrgId ad_network) {
    rtb::BidRequest request;
    request.id = std::to_string(rng_());
    request.imp.id.assign(1, '1');  // not = "1": GCC 12 -O3 -Werror=restrict false positive
    request.imp.bidfloor = 0.05 + rng_.next_double() * 0.3;
    request.site_domain = publisher_.domain;
    request.site_topics = publisher_.topics;
    request.user_country = user_.country;
    request.user = user_.id;
    for (const auto topic : publisher_.topics) {
      if (world::topic_by_id(topic).sensitive) request.sensitive_context = true;
    }

    const std::size_t n_bidders = 2 + static_cast<std::size_t>(rng_.next_below(5));
    const auto bidders = sample_orgs(world_, OrgRole::Dsp, n_bidders, user_.country, rng_);
    const auto outcome = engine_.run(request, bidders, jar_, rng_);

    // Every solicited DSP produced a browser-visible bid request.
    for (const auto dsp_id : outcome.participants) {
      const auto& dsp = world_.org(dsp_id);
      if (dsp.domains.empty()) continue;
      const auto dsp_domain = dsp.domains[static_cast<std::size_t>(
          rng_.next_below(dsp.domains.size()))];
      const bool gated = rng_.chance(0.18);
      request_burst(dsp_domain, entry_url, 1, 1, gated);
    }

    if (!outcome.winner) return;
    const auto& winner = world_.org(outcome.winner->dsp);
    if (winner.domains.empty()) return;
    const auto winner_domain = winner.domains.front();
    // Creative fetch + win notice, chained off the winner's bid URL.
    const std::string creative_url =
        request_burst(winner_domain, entry_url, 2, 2, false);
    jar_.record_sync(ad_network, winner.id);  // exchange <-> winner know each other
    if (outcome.winner->wants_sync && !creative_url.empty()) {
      sync_cascade(creative_url, 2, winner.id);
    }
  }

  void sync_cascade(const std::string& parent_url, std::uint8_t depth,
                    world::OrgId initiator) {
    if (depth > 4) return;
    const std::size_t n_syncs = 1 + static_cast<std::size_t>(rng_.next_below(3));
    const auto syncs = sample_orgs(world_, OrgRole::SyncService, n_syncs, user_.country, rng_);
    for (const auto sync_org : syncs) {
      const auto& org = world_.org(sync_org);
      if (org.domains.empty()) continue;
      const auto sync_domain = org.domains[static_cast<std::size_t>(
          rng_.next_below(org.domains.size()))];
      const bool gated = rng_.chance(0.10);
      const std::string sync_url =
          request_burst(sync_domain, parent_url, depth, 1, gated);
      if (sync_url.empty()) continue;
      jar_.record_sync(initiator, sync_org);
      if (rng_.chance(0.20)) {
        sync_cascade(sync_url, static_cast<std::uint8_t>(depth + 1), sync_org);
      }
    }
  }

  const world::World& world_;
  const dns::Resolver& resolver_;
  const world::ExtensionUser& user_;
  const world::Publisher& publisher_;
  pdns::Day day_;
  const CollectorConfig& config_;
  util::Rng& rng_;
  std::vector<ThirdPartyRequest>& out_;
  pdns::Store* pdns_feed_;
  rtb::CookieJar& jar_;
  rtb::AuctionEngine engine_;
  dns::QueryOrigin origin_;
};

}  // namespace

std::vector<double> publisher_weights(const world::World& world,
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
    // Locality of attention: users over-visit sites of their own country.
    if (publishers[i].country == user.country) weight *= 5.0;
    weights[i] = weight;
  }
  return weights;
}

void render_visit(const world::World& world, const dns::Resolver& resolver,
                  const world::ExtensionUser& user, const world::Publisher& publisher,
                  pdns::Day day, const CollectorConfig& config, util::Rng& rng,
                  std::vector<ThirdPartyRequest>& out, pdns::Store* pdns_feed,
                  rtb::CookieJar* jar) {
  rtb::CookieJar throwaway;
  VisitRenderer renderer(world, resolver, user, publisher, day, config, rng, out,
                         pdns_feed, jar != nullptr ? *jar : throwaway);
  renderer.run();
}

ExtensionDataset collect_extension_dataset(const world::World& world,
                                           const dns::Resolver& resolver,
                                           const CollectorConfig& config, util::Rng& rng,
                                           pdns::Store* pdns_feed) {
  ExtensionDataset dataset;
  std::unordered_set<world::PublisherId> visited;
  std::unordered_map<world::UserId, rtb::CookieJar> jars;  // user state persists
  const double visits_mean = world.config().visits_per_user();
  const auto window = static_cast<double>(config.window_end - config.window_start + 1);

  for (const auto& user : world.users()) {
    const auto n_visits = rng.next_poisson(visits_mean * user.activity);
    if (n_visits == 0) continue;
    const util::DiscreteSampler publishers(publisher_weights(world, user));
    for (std::uint64_t v = 0; v < n_visits; ++v) {
      const auto publisher_id = static_cast<world::PublisherId>(publishers.sample(rng));
      const auto day = static_cast<pdns::Day>(
          config.window_start +
          static_cast<pdns::Day>(rng.next_below(static_cast<std::uint64_t>(window))));
      render_visit(world, resolver, user, world.publisher(publisher_id), day, config, rng,
                   dataset.requests, pdns_feed, &jars[user.id]);
      ++dataset.first_party_visits;
      visited.insert(publisher_id);
    }
  }
  dataset.distinct_publishers = visited.size();
  return dataset;
}

}  // namespace cbwt::browser
