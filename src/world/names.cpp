#include "world/names.h"

#include <array>

#include "util/strings.h"

namespace cbwt::world {

namespace {

constexpr std::array<std::string_view, 14> kAdStems = {
    "admetrix", "adnexus",  "bidwave",  "clickforge", "admuse",  "pubspring",
    "adcastle", "bannerly", "admarket", "adpulse",    "spotgrid", "reachly",
    "advista",  "promonet"};

constexpr std::array<std::string_view, 10> kDspStems = {
    "bidstream", "demandhub", "rtbworks", "dspring", "bidlogic",
    "auctionor", "yieldmax",  "bidcore",  "demandr", "tradebid"};

constexpr std::array<std::string_view, 8> kSyncStems = {
    "syncpixel", "cookielink", "matchbox", "idbridge",
    "usersync",  "pixelsync",  "idgraph",  "cmatch"};

constexpr std::array<std::string_view, 10> kAnalyticsStems = {
    "sitemetric", "webgauge", "statify", "tracklens", "pagemeter",
    "visitlog",   "metricly", "webpulse", "countwise", "heatsense"};

constexpr std::array<std::string_view, 10> kCleanStems = {
    "livechat", "commentbox", "fontserve", "imagecdn", "videohost",
    "mapwidget", "payportal",  "helpdesk",  "feedbackr", "newsletterly"};

constexpr std::array<std::string_view, 6> kSuffixes = {"com", "net", "io",
                                                       "co",  "biz", "xyz"};

constexpr std::array<std::string_view, 8> kAdHosts = {
    "ads", "static", "cdn", "pixel", "tag", "srv", "delivery", "banners"};
constexpr std::array<std::string_view, 6> kDspHosts = {"bid",   "rtb", "x",
                                                       "match", "dsp", "exch"};
constexpr std::array<std::string_view, 6> kSyncHosts = {"sync", "cm",  "id",
                                                        "match", "px", "csync"};
constexpr std::array<std::string_view, 5> kAnalyticsHosts = {"stats", "collect",
                                                             "beacon", "t", "m"};
constexpr std::array<std::string_view, 5> kCleanHosts = {"widget", "api", "embed",
                                                         "app", "assets"};

template <std::size_t N>
std::string_view pick_one(util::Rng& rng, const std::array<std::string_view, N>& pool) {
  return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
}

}  // namespace

std::string make_org_name(util::Rng& rng, OrgRole role, std::uint32_t index) {
  std::string_view stem;
  switch (role) {
    case OrgRole::AdNetwork: stem = pick_one(rng, kAdStems); break;
    case OrgRole::Dsp: stem = pick_one(rng, kDspStems); break;
    case OrgRole::SyncService: stem = pick_one(rng, kSyncStems); break;
    case OrgRole::Analytics: stem = pick_one(rng, kAnalyticsStems); break;
    case OrgRole::CleanService: stem = pick_one(rng, kCleanStems); break;
  }
  return std::string(stem) + std::to_string(index);
}

std::string make_domain_suffix(util::Rng& rng) {
  // Weighted towards .com/.net as in the wild.
  const double roll = rng.next_double();
  if (roll < 0.55) return "com";
  if (roll < 0.80) return "net";
  return std::string(pick_one(rng, kSuffixes));
}

std::string make_host_label(util::Rng& rng, OrgRole role, std::uint32_t index) {
  std::string_view label;
  switch (role) {
    case OrgRole::AdNetwork: label = pick_one(rng, kAdHosts); break;
    case OrgRole::Dsp: label = pick_one(rng, kDspHosts); break;
    case OrgRole::SyncService: label = pick_one(rng, kSyncHosts); break;
    case OrgRole::Analytics: label = pick_one(rng, kAnalyticsHosts); break;
    case OrgRole::CleanService: label = pick_one(rng, kCleanHosts); break;
  }
  std::string out(label);
  if (index > 0) out += std::to_string(index);
  return out;
}

std::string make_publisher_domain(util::Rng& rng, std::string_view topic,
                                  std::uint32_t index, std::string_view country_code) {
  static constexpr std::array<std::string_view, 6> kShapes = {
      "daily", "my", "best", "the", "go", "top"};
  std::string name = std::string(pick_one(rng, kShapes)) + std::string(topic);
  // Strip spaces from multi-word topics ("sexual orientation").
  std::string compact;
  for (const char c : name) {
    if (c != ' ') compact += c;
  }
  compact += std::to_string(index);
  // A third of sites use their national ccTLD, the rest .com/.net.
  const double roll = rng.next_double();
  if (roll < 0.33) {
    compact.push_back('.');  // not "." + ...: GCC 12 -O3 -Werror=restrict false positive
    compact += util::to_lower(country_code);
  } else if (roll < 0.85) {
    compact += ".com";
  } else {
    compact += ".net";
  }
  return compact;
}

std::string make_datacenter_name(std::string_view country_code, std::uint32_t index,
                                 std::string_view owner) {
  return util::to_lower(country_code) + std::to_string(index) + "-" + std::string(owner);
}

}  // namespace cbwt::world
