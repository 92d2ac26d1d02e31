#include "browser/extension.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <unordered_map>
#include <unordered_set>

#include "rtb/openrtb.h"
#include "util/contract.h"
#include "world/topics.h"

namespace cbwt::browser {

namespace {

using world::OrgRole;

constexpr std::array<std::string_view, 5> kSyncKeywords = {
    "usermatch", "cookiesync", "uid_sync", "cm", "idsync"};

/// Text buffer chunk: a scale-0.03 panel stores about 10 MB of URLs.
constexpr std::size_t kTextChunkBytes = 1 << 20;

/// Appends `value` in decimal, as std::to_string writes it.
void append_number(std::string& out, std::uint64_t value) {
  char digits[20];
  const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  out.append(digits, end);
}

/// Identifies a URL that carries no random id, so that requests repeat
/// it: it is a function of its domain, scheme, shape (1-3) and one small
/// parameter. Never 0.
std::uint64_t repeat_key(world::DomainId domain, bool https, std::uint64_t shape,
                         std::uint64_t param) {
  CBWT_ASSERT(shape >= 1 && shape <= 3 && param < (std::uint64_t{1} << 29));
  return (std::uint64_t{domain} << 32) | (std::uint64_t{https} << 31) | (shape << 29) | param;
}

/// Writes into `url` the URL of a request to `domain`, shaped by the org
/// role. Ad paths carry the tokens easylist's generic rules look for;
/// sync/DSP URLs carry the argument keywords stage-2 classification keys
/// on. Returns the URL's repeat_key, or 0 when it carries a random id.
std::uint64_t build_url(std::string& url, const world::World& world,
                        const world::TrackerDomain& domain,
                        const world::Publisher& publisher, bool https, util::Rng& rng) {
  const auto& org = world.org(domain.org);
  url.assign(https ? "https://" : "http://").append(domain.fqdn);
  const auto id = rng.next_below(1'000'000);
  switch (org.role) {
    case OrgRole::AdNetwork: {
      const double roll = rng.next_double();
      if (roll < 0.4) {
        url.append("/ads/display/");
        append_number(url, id);
        url.append("?pub=").append(publisher.domain).append("&ad_slot=");
        append_number(url, rng.next_below(8));
      } else if (roll < 0.7) {
        url.append("/banner/");
        append_number(url, id);
        url.append("/img?size=300x250");
      } else {
        const auto version = rng.next_below(100);
        url.append("/adserve/tag.js?v=");
        append_number(url, version);
        return repeat_key(domain.id, https, 1, version);
      }
      break;
    }
    case OrgRole::Analytics: {
      if (rng.chance(0.7)) {
        url.append("/collect?sid=");
        append_number(url, id);
        url.append("&ev=pageview");
      } else {
        url.append("/beacon?t=");
        append_number(url, id);
      }
      break;
    }
    case OrgRole::Dsp: {
      url.append("/bid?auction=");
      append_number(url, id);
      url.append("&price=");
      append_number(url, rng.next_below(500));
      if (domain.keyword_urls) url.append("&rtb=2.5");
      break;
    }
    case OrgRole::SyncService: {
      const auto keyword = kSyncKeywords[static_cast<std::size_t>(
          rng.next_below(kSyncKeywords.size()))];
      url.append("/pixel?").append(keyword).append("=1&uid=");
      append_number(url, id);
      break;
    }
    case OrgRole::CleanService: {
      const double roll = rng.next_double();
      if (roll < 0.4) {
        url.append("/widget/embed?site=").append(publisher.domain);
        return repeat_key(domain.id, https, 2, publisher.id);
      }
      if (roll < 0.7) {
        const auto app = rng.next_below(50);
        url.append("/assets/app-");
        append_number(url, app);
        url.append(".js");
        return repeat_key(domain.id, https, 3, app);
      }
      url.append("/api/v1/messages?channel=");
      append_number(url, id);
      break;
    }
  }
  return 0;
}

/// Bit t set for each topic id t in `topics` (the taxonomy has 28).
std::uint32_t topic_mask(std::span<const world::TopicId> topics) {
  std::uint32_t mask = 0;
  for (const auto topic : topics) {
    CBWT_EXPECTS(topic < 32);
    mask |= std::uint32_t{1} << topic;
  }
  return mask;
}

/// What the visits of one collection run share: the org pools, the
/// scratch string each URL is built in before it is appended to the
/// dataset's text, and the views of the URLs that repeat (by repeat_key),
/// so each of those is stored once per run.
struct RunState {
  explicit RunState(const world::World& world) : orgs(world) {}

  OrgSampler orgs;
  std::string url;
  std::unordered_map<std::uint64_t, std::string_view> repeated;
};

class VisitRenderer {
 public:
  VisitRenderer(const world::World& world, const dns::Resolver& resolver,
                const world::ExtensionUser& user, const world::Publisher& publisher,
                pdns::Day day, const CollectorConfig& config, util::Rng& rng,
                ExtensionDataset& out, pdns::Store* pdns_feed, rtb::CookieJar& jar,
                RunState& run)
      : world_(world), resolver_(resolver), user_(user), publisher_(publisher), day_(day),
        config_(config), rng_(rng), out_(out), pdns_feed_(pdns_feed), jar_(jar), run_(run),
        engine_(world, resolver, config.auction),
        origin_(resolver.origin_for(user.country, user.third_party_resolver)) {}

  void run() {
    if (publisher_.embedded_tags.empty()) return;
    run_.url.assign("https://").append(publisher_.domain).append(1, '/');
    const std::string_view page_url = out_.add_text(run_.url);
    for (const auto tag_domain : publisher_.embedded_tags) {
      emit_tag(tag_domain, page_url);
    }
  }

 private:
  /// Issues `count` requests to one domain and returns the URL of the
  /// last one (the chain parent for children).
  std::string_view request_burst(world::DomainId domain_id, std::string_view referrer,
                                 std::uint8_t depth, std::size_t count,
                                 bool interaction_gated) {
    const auto& domain = world_.domain(domain_id);
    std::string_view last_url;
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
      const std::uint64_t key =
          build_url(run_.url, world_, domain, publisher_, request.https, rng_);
      if (key == 0) {
        request.url = out_.add_text(run_.url);
      } else {
        auto [it, fresh] = run_.repeated.try_emplace(key);
        if (fresh) it->second = out_.add_text(run_.url);
        request.url = it->second;
      }
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
      out_.requests.push_back(request);
    }
    return last_url;
  }

  void emit_tag(world::DomainId tag_domain, std::string_view page_url) {
    const auto& domain = world_.domain(tag_domain);
    const auto& org = world_.org(domain.org);
    switch (org.role) {
      case OrgRole::AdNetwork: {
        // Tag load + creative/static fetches, referrer = first party.
        const std::size_t burst = 3 + static_cast<std::size_t>(rng_.next_below(5));
        const std::string_view entry_url = request_burst(tag_domain, page_url, 0, burst, false);
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
  void run_auction(std::string_view entry_url, world::OrgId ad_network) {
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
    const auto bidders = run_.orgs.sample(OrgRole::Dsp, n_bidders, user_.country, rng_);
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
    const std::string_view creative_url =
        request_burst(winner_domain, entry_url, 2, 2, false);
    jar_.record_sync(ad_network, winner.id);  // exchange <-> winner know each other
    if (outcome.winner->wants_sync && !creative_url.empty()) {
      sync_cascade(creative_url, 2, winner.id);
    }
  }

  void sync_cascade(std::string_view parent_url, std::uint8_t depth,
                    world::OrgId initiator) {
    if (depth > 4) return;
    const std::size_t n_syncs = 1 + static_cast<std::size_t>(rng_.next_below(3));
    const auto syncs = run_.orgs.sample(OrgRole::SyncService, n_syncs, user_.country, rng_);
    for (const auto sync_org : syncs) {
      const auto& org = world_.org(sync_org);
      if (org.domains.empty()) continue;
      const auto sync_domain = org.domains[static_cast<std::size_t>(
          rng_.next_below(org.domains.size()))];
      const bool gated = rng_.chance(0.10);
      const std::string_view sync_url =
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
  ExtensionDataset& out_;
  pdns::Store* pdns_feed_;
  rtb::CookieJar& jar_;
  RunState& run_;
  rtb::AuctionEngine engine_;
  dns::QueryOrigin origin_;
};

void render_visit_with(RunState& run, const world::World& world,
                       const dns::Resolver& resolver, const world::ExtensionUser& user,
                       const world::Publisher& publisher, pdns::Day day,
                       const CollectorConfig& config, util::Rng& rng, ExtensionDataset& out,
                       pdns::Store* pdns_feed, rtb::CookieJar& jar) {
  VisitRenderer(world, resolver, user, publisher, day, config, rng, out, pdns_feed, jar, run)
      .run();
}

}  // namespace

std::string_view ExtensionDataset::add_text(std::string_view bytes) {
  if (!text) text = std::make_shared<util::Arena>(kTextChunkBytes);
  return text->intern(bytes);
}

std::vector<std::uint32_t> publisher_topic_masks(const world::World& world) {
  std::vector<std::uint32_t> masks;
  masks.reserve(world.publishers().size());
  for (const auto& publisher : world.publishers()) masks.push_back(topic_mask(publisher.topics));
  return masks;
}

std::vector<double> publisher_weights(const world::World& world,
                                      std::span<const std::uint32_t> publisher_masks,
                                      const world::ExtensionUser& user) {
  const auto& publishers = world.publishers();
  CBWT_EXPECTS(publisher_masks.size() == publishers.size());
  const std::uint32_t interests = topic_mask(user.interests);
  std::vector<double> weights(publishers.size());
  for (std::size_t i = 0; i < publishers.size(); ++i) {
    double weight = publishers[i].popularity;
    if ((publisher_masks[i] & interests) != 0) weight *= 3.0;
    // Locality of attention: users over-visit sites of their own country.
    if (publishers[i].country == user.country) weight *= 5.0;
    weights[i] = weight;
  }
  return weights;
}

std::vector<double> publisher_weights(const world::World& world,
                                      const world::ExtensionUser& user) {
  return publisher_weights(world, publisher_topic_masks(world), user);
}

std::vector<world::OrgId> OrgSampler::sample(world::OrgRole role, std::size_t count,
                                             std::string_view local_country,
                                             util::Rng& rng) {
  auto& pools = pools_[static_cast<std::size_t>(role)];
  auto it = pools.find(local_country);
  if (it == pools.end()) {
    Pool pool;
    std::vector<double> weights;
    for (const auto& org : world_.orgs()) {
      if (org.role == role) {
        pool.orgs.push_back(org.id);
        weights.push_back(org.popularity * (org.hq_country == local_country ? 4.0 : 1.0));
      }
    }
    pool.sampler = util::DiscreteSampler(weights);
    it = pools.emplace(std::string(local_country), std::move(pool)).first;
  }
  const Pool& pool = it->second;
  CBWT_EXPECTS(!pool.orgs.empty());
  std::vector<world::OrgId> out;
  for (std::size_t i = 0; i < count * 3 && out.size() < count; ++i) {
    const auto picked = pool.orgs[pool.sampler.sample(rng)];
    if (std::find(out.begin(), out.end(), picked) == out.end()) out.push_back(picked);
  }
  return out;
}

void render_visit(const world::World& world, const dns::Resolver& resolver,
                  const world::ExtensionUser& user, const world::Publisher& publisher,
                  pdns::Day day, const CollectorConfig& config, util::Rng& rng,
                  ExtensionDataset& out, pdns::Store* pdns_feed, rtb::CookieJar* jar) {
  RunState run(world);
  rtb::CookieJar throwaway;
  render_visit_with(run, world, resolver, user, publisher, day, config, rng, out, pdns_feed,
                    jar != nullptr ? *jar : throwaway);
}

ExtensionDataset collect_extension_dataset(const world::World& world,
                                           const dns::Resolver& resolver,
                                           const CollectorConfig& config, util::Rng& rng,
                                           pdns::Store* pdns_feed) {
  ExtensionDataset dataset;
  RunState run(world);
  const auto publisher_masks = publisher_topic_masks(world);
  std::unordered_set<world::PublisherId> visited;
  std::unordered_map<world::UserId, rtb::CookieJar> jars;  // user state persists
  const double visits_mean = world.config().visits_per_user();
  const auto window = static_cast<double>(config.window_end - config.window_start + 1);

  for (const auto& user : world.users()) {
    const auto n_visits = rng.next_poisson(visits_mean * user.activity);
    if (n_visits == 0) continue;
    const util::DiscreteSampler publishers(publisher_weights(world, publisher_masks, user));
    for (std::uint64_t v = 0; v < n_visits; ++v) {
      const auto publisher_id = static_cast<world::PublisherId>(publishers.sample(rng));
      const auto day = static_cast<pdns::Day>(
          config.window_start +
          static_cast<pdns::Day>(rng.next_below(static_cast<std::uint64_t>(window))));
      render_visit_with(run, world, resolver, user, world.publisher(publisher_id), day,
                        config, rng, dataset, pdns_feed, jars[user.id]);
      ++dataset.first_party_visits;
      visited.insert(publisher_id);
    }
  }
  dataset.distinct_publishers = visited.size();
  return dataset;
}

}  // namespace cbwt::browser
