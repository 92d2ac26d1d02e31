// Property suite pinning the token-indexed Engine to ReferenceEngine —
// the pre-optimization naive matcher kept as the executable spec. A
// seeded generator produces adversarial rule corpora (anchors, wildcard
// literals, '^' separators, end anchors, $third-party, $domain=,
// exceptions, underscore hosts) and request corpora biased to collide
// with them; both engines must agree on every verdict, including which
// rule wins and from which list.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "filterlist/engine.h"
#include "filterlist/reference.h"
#include "util/prng.h"

namespace cbwt::filterlist {
namespace {

// Sanitizer builds run each rule_matches ~10x slower; shrink the corpus
// so the suite stays inside its timeout while keeping the shape.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::size_t kRuleCount = 1500;
constexpr std::size_t kRequestCount = 1500;
#else
constexpr std::size_t kRuleCount = 10000;
constexpr std::size_t kRequestCount = 10000;
#endif

const std::vector<std::string>& tokens() {
  static const std::vector<std::string> kTokens = {
      "ads",   "track", "pixel", "sync", "banner", "img",  "js",
      "beacon", "rtb",   "cm",    "uid",  "match",  "stat", "x1"};
  return kTokens;
}

const std::vector<std::string>& hosts() {
  static const std::vector<std::string> kHosts = {
      "ads.example.com",       "track.example.com", "cdn.example.net",
      "pixel.tracker.io",      "sync.tracker.io",   "static.site.org",
      "ad_server.example.com", "a.b.c.example.com", "example.com",
      "tracker.io",            "site.org",          "beacon.stats.net"};
  return kHosts;
}

std::string pick(util::Rng& rng, const std::vector<std::string>& pool) {
  return pool[rng.next_below(pool.size())];
}

/// One random filter line. Weighted toward anchored forms like real
/// lists (and so the reference scan bucket stays test-speed friendly).
/// Exceptions get narrow shapes — a bare @@||host^ over this small host
/// pool would suppress every verdict and make the property vacuous.
std::string random_rule(util::Rng& rng) {
  std::string rule;
  if (rng.chance(0.06)) {
    rule += "@@";
    const auto shape = rng.next_below(4);
    if (shape == 0) {
      rule += "||" + pick(rng, hosts()) + "^*" + pick(rng, tokens()) + "=" +
              pick(rng, tokens());
    } else if (shape == 1) {
      rule += "/" + pick(rng, tokens()) + "/" + pick(rng, tokens());
    } else if (shape == 2) {
      rule += "&" + pick(rng, tokens()) + "=" + pick(rng, tokens()) + "|";
    } else {
      rule += "|https://" + pick(rng, hosts()) + "/" + pick(rng, tokens());
    }
    if (rng.chance(0.3)) rule += "$third-party";
    return rule;
  }

  const auto shape = rng.next_below(10);
  if (shape < 6) {
    // Domain-anchored: ||host^ with optional tail literal.
    rule += "||" + pick(rng, hosts());
    if (rng.chance(0.8)) rule += '^';
    if (rng.chance(0.3)) rule += "*" + pick(rng, tokens());
  } else if (shape == 6) {
    rule += "|https://" + pick(rng, hosts()) + "/";
  } else if (shape == 7) {
    rule += "/" + pick(rng, tokens()) + "/";
    if (rng.chance(0.3)) rule += "*" + pick(rng, tokens()) + "^";
  } else if (shape == 8) {
    rule += "&" + pick(rng, tokens()) + "=";
    if (rng.chance(0.4)) rule += pick(rng, tokens()) + "|";
  } else {
    // Free substring, sometimes with no boundary-safe token at all so
    // the fallback buckets get exercised too.
    rule += pick(rng, tokens());
    if (rng.chance(0.5)) rule += "-" + pick(rng, tokens());
  }

  std::string options;
  if (rng.chance(0.25)) options += "third-party";
  if (rng.chance(0.15)) {
    if (!options.empty()) options += ",";
    options += "domain=" + pick(rng, hosts());
    if (rng.chance(0.5)) options += "|~" + pick(rng, hosts());
  }
  if (!options.empty()) rule += "$" + options;
  return rule;
}

RequestContext make_context(const std::string& url, const std::string& host,
                            const std::string& page_host, bool third_party) {
  RequestContext context;
  context.url = url;
  context.host = host;
  context.page_host = page_host;
  context.third_party = third_party;
  return context;
}

struct RequestStorage {
  std::string url;
  std::string host;
  std::string page_host;
  bool third_party;
};

RequestStorage random_request(util::Rng& rng) {
  RequestStorage request;
  request.host = pick(rng, hosts());
  request.url = "https://" + request.host;
  const auto segments = rng.next_below(3);
  // Appended piecewise, not via "/" + ...: GCC 12 at -O3 raises a
  // -Werror=restrict false positive on a one-char literal + std::string.
  for (std::uint64_t s = 0; s < segments; ++s) {
    request.url.append(1, '/').append(pick(rng, tokens()));
  }
  if (rng.chance(0.5)) {
    // Value drawn before key: the order GCC evaluated the original
    // one-expression form in, so the corpus stays the same.
    const std::string value = pick(rng, tokens());
    const std::string key = pick(rng, tokens());
    request.url.append(1, '?').append(key).append(1, '=').append(value);
    if (rng.chance(0.4)) request.url.append(1, '&').append(pick(rng, tokens())).append("=1");
  }
  request.page_host = pick(rng, hosts());
  request.third_party = rng.chance(0.7);
  return request;
}

/// Both engines, loaded with identical lists.
struct EnginePair {
  Engine indexed;
  ReferenceEngine reference;

  void add(const std::string& name, const std::vector<std::string>& lines) {
    indexed.add_list(FilterList(name, lines));
    reference.add_list(FilterList(name, lines));
  }

  /// Asserts both verdicts are identical (match bit, winning rule text,
  /// winning list) for one request.
  void expect_agree(const RequestContext& context) const {
    const MatchResult got = indexed.match(context);
    const MatchResult want = reference.match(context);
    ASSERT_EQ(got.matched, want.matched)
        << "url=" << context.url << " page=" << context.page_host
        << " 3p=" << context.third_party
        << (want.matched ? " reference rule: " + want.rule->text
                         : " reference: no match, indexed rule: " + got.rule->text);
    if (want.matched) {
      ASSERT_EQ(got.rule->text, want.rule->text) << "url=" << context.url;
      ASSERT_EQ(got.list, want.list) << "url=" << context.url;
    }
  }
};

TEST(EngineEquivalence, RandomCorpusAgreesWithReference) {
  util::Rng rng(0xF117E121ULL);

  std::vector<std::string> easylist;
  std::vector<std::string> easyprivacy;
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    (i % 2 == 0 ? easylist : easyprivacy).push_back(random_rule(rng));
  }

  EnginePair engines;
  engines.add("easylist", easylist);
  engines.add("easyprivacy", easyprivacy);
  ASSERT_EQ(engines.indexed.total_rules(), engines.reference.total_rules());

  std::size_t matched = 0;
  for (std::size_t i = 0; i < kRequestCount; ++i) {
    const RequestStorage request = random_request(rng);
    const RequestContext context = make_context(request.url, request.host,
                                                request.page_host, request.third_party);
    engines.expect_agree(context);
    if (engines.indexed.match(context).matched) ++matched;
  }
  // The corpus must actually exercise both verdicts; an all-miss (or
  // all-hit) run would vacuously pass.
  EXPECT_GT(matched, kRequestCount / 20);
  EXPECT_LT(matched, kRequestCount);
}

TEST(EngineEquivalence, HandPickedEdgeCases) {
  EnginePair engines;
  engines.add("edge", {
                          "||ads.example.com^",
                          "||ad_server.example.com^",
                          "||example.com^*track",
                          "|https://pixel.tracker.io/",
                          "/beacon/*img^",
                          "&uid=",
                          "track-pixel",
                          "sync|",
                          "||tracker.io^$third-party",
                          "||site.org^$domain=example.com|~a.b.c.example.com",
                          "@@||ads.example.com/allowed/$third-party",
                          "@@&uid=optout",
                      });

  const std::vector<RequestStorage> requests = {
      {"https://ads.example.com/x", "ads.example.com", "news.org", true},
      {"https://ads.example.com/allowed/x", "ads.example.com", "news.org", true},
      {"https://ad_server.example.com/b", "ad_server.example.com", "news.org", true},
      {"https://sub.example.com/p?track=1", "sub.example.com", "news.org", true},
      {"https://pixel.tracker.io/", "pixel.tracker.io", "news.org", true},
      {"https://x.net/beacon/big/img/", "x.net", "news.org", true},
      {"https://x.net/a?uid=7", "x.net", "news.org", true},
      {"https://x.net/a?uid=optout", "x.net", "news.org", true},
      {"https://y.net/track-pixel.gif", "y.net", "news.org", true},
      {"https://y.net/cookiesync", "y.net", "news.org", true},
      {"https://tracker.io/x", "tracker.io", "news.org", false},
      {"https://tracker.io/x", "tracker.io", "news.org", true},
      {"https://site.org/w", "site.org", "example.com", true},
      {"https://site.org/w", "site.org", "a.b.c.example.com", true},
      {"https://site.org/w", "site.org", "other.net", true},
  };
  for (const auto& request : requests) {
    engines.expect_agree(make_context(request.url, request.host, request.page_host,
                                      request.third_party));
  }
}

/// Streaming-overflow path: URLs with more tokens than MatchScratch's
/// stack buffer must still probe every token bucket.
TEST(EngineEquivalence, LongUrlsOverflowTokenBuffer) {
  EnginePair engines;
  // The needle token is rare, so it indexes the rule; it appears beyond
  // the 128-token buffer in the request URL.
  engines.add("long", {"/needletoken/", "@@/needletoken/?consent"});

  std::string url = "https://long.example.com/p";
  for (int i = 0; i < 200; ++i) url += "/seg" + std::to_string(i);
  const std::string hit_url = url + "/needletoken/x";
  const std::string allow_url = url + "/needletoken/?consent=1";

  for (const std::string& candidate : {url, hit_url, allow_url}) {
    engines.expect_agree(
        make_context(candidate, "long.example.com", "news.org", true));
  }
}

}  // namespace
}  // namespace cbwt::filterlist
