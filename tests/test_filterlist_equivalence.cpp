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
  /// winning list) for one request, through match(request) and through
  /// match(request, plan_host(request.host)).
  void expect_agree(const RequestContext& context) const {
    const MatchResult want = reference.match(context);
    const HostPlan plan = indexed.plan_host(context.host);
    for (const bool planned : {false, true}) {
      const MatchResult got = planned ? indexed.match(context, plan) : indexed.match(context);
      ASSERT_EQ(got.matched, want.matched)
          << "planned=" << planned << " url=" << context.url << " host=" << context.host
          << " page=" << context.page_host << " 3p=" << context.third_party
          << (want.matched ? " reference rule: " + want.rule->text
                           : " reference: no match, indexed rule: " + got.rule->text);
      if (want.matched) {
        ASSERT_EQ(got.rule->text, want.rule->text)
            << "planned=" << planned << " url=" << context.url;
        ASSERT_EQ(got.list, want.list) << "planned=" << planned << " url=" << context.url;
      }
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

  // Variants from their own stream, so the base corpus stays as it was:
  // a request host other than the URL's, and a URL host with a port.
  util::Rng variant_rng(0x9A7E5ULL);
  std::size_t matched = 0;
  for (std::size_t i = 0; i < kRequestCount; ++i) {
    const RequestStorage request = random_request(rng);
    const RequestContext context = make_context(request.url, request.host,
                                                request.page_host, request.third_party);
    engines.expect_agree(context);
    if (engines.indexed.match(context).matched) ++matched;

    const std::string other_host = pick(variant_rng, hosts());
    engines.expect_agree(make_context(request.url, other_host, request.page_host,
                                      request.third_party));
    std::string ported = request.url;
    ported.insert(std::string_view("https://").size() + request.host.size(), ":8443");
    engines.expect_agree(make_context(ported, request.host, request.page_host,
                                      request.third_party));
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

/// The host plan's shortcut: a host-decided rule (||K or ||K^, no end
/// anchor, no $domain=) is trusted only when the URL's host is the
/// request host; every other shape, and every URL that fails that check,
/// is evaluated in full.
TEST(EngineEquivalence, HostPlansAgreeWithReference) {
  EnginePair engines;
  engines.add("plans", {
                           "||tracker.io^$third-party",
                           "||tracker.io/px^",
                           "||sync.tracker.io^$~third-party",
                           "||pixel.tracker.io^|",
                           "||www.stats.net/",
                           "||stats.net",
                           "||beacon.stats.net^$domain=news.org",
                           "||cdn.example.net^*ad",
                           "||example.com^*track",
                           "||a.b.c.example.com^",
                       });
  engines.add("plans-exceptions", {
                                      "||example.com^",
                                      "@@||ads.example.com^$domain=allowed.org",
                                      "@@||example.com/optout",
                                  });
  const std::vector<RequestStorage> requests = {
      // request.host differs from the URL's host: the fallback.
      {"https://other.net/x", "sync.tracker.io", "news.org", true},
      {"https://other.net/x", "sync.tracker.io", "news.org", false},
      {"https://tracker.io.evil.net/", "tracker.io", "news.org", true},
      {"https://tracker.iox/", "tracker.io", "news.org", true},
      {"no-scheme/tracker.io", "tracker.io", "news.org", true},
      // A URL with no path.
      {"https://sync.tracker.io", "sync.tracker.io", "news.org", true},
      {"https://sync.tracker.io", "sync.tracker.io", "news.org", false},
      {"https://pixel.tracker.io", "pixel.tracker.io", "news.org", false},
      // host:port, as the request host and beside it.
      {"https://sync.tracker.io:8443/p", "sync.tracker.io", "news.org", true},
      {"https://sync.tracker.io:8443/p", "sync.tracker.io:8443", "news.org", true},
      // ||K with no ^, and a host that only extends its last label.
      {"https://www.stats.net/", "www.stats.net", "news.org", true},
      {"https://www.stats.net", "www.stats.net", "news.org", true},
      // One literal that goes on past the host: ||K/... is not decided.
      {"https://tracker.io/x", "tracker.io", "news.org", false},
      {"https://tracker.io/px?a=1", "tracker.io", "news.org", false},
      {"https://stats.netx/", "stats.netx", "news.org", true},
      // ||K^| (end anchor): only the bare host URL can match.
      {"https://pixel.tracker.io/", "pixel.tracker.io", "news.org", false},
      {"https://pixel.tracker.io/a", "pixel.tracker.io", "news.org", false},
      // ||K^$domain=.
      {"https://beacon.stats.net/b", "beacon.stats.net", "news.org", true},
      {"https://beacon.stats.net/b", "beacon.stats.net", "other.org", true},
      // ||K^*ad.
      {"https://cdn.example.net/lib/ad.js", "cdn.example.net", "news.org", true},
      {"https://cdn.example.net/lib/x.js", "cdn.example.net", "news.org", true},
      {"https://cdn.example.net/lib/x.js", "cdn.example.net", "news.org", false},
      // An anchored exception under the host.
      {"https://ads.example.com/a", "ads.example.com", "allowed.org", true},
      {"https://ads.example.com/a", "ads.example.com", "news.org", true},
      {"https://x.example.com/optout", "x.example.com", "news.org", true},
      // A plan spanning several suffix buckets.
      {"https://a.b.c.example.com/p", "a.b.c.example.com", "news.org", true},
      {"https://z.a.b.c.example.com/p?track=1", "z.a.b.c.example.com", "news.org", true},
      {"https://z.a.b.c.example.com/p?track=1", "z.a.b.c.example.com", "news.org", false},
      {"https://x.sync.tracker.io/", "x.sync.tracker.io", "news.org", true},
      {"https://x.sync.tracker.io/", "x.sync.tracker.io", "news.org", false},
      // A host no rule is keyed under.
      {"https://unlisted.org/", "unlisted.org", "news.org", true},
  };
  for (const auto& request : requests) {
    engines.expect_agree(make_context(request.url, request.host, request.page_host,
                                      request.third_party));
  }

  // Plans hold the walk's buckets, longest suffix first: the host's
  // own key, then example.com's two rules; sync.tracker.io's rule, then
  // tracker.io's two.
  const HostPlan deep = engines.indexed.plan_host("z.a.b.c.example.com");
  EXPECT_EQ(deep.candidates.size(), 3U);
  EXPECT_EQ(engines.indexed.plan_host("x.sync.tracker.io").candidates.size(), 3U);
  EXPECT_TRUE(engines.indexed.plan_host("unlisted.org").candidates.empty());
  EXPECT_TRUE(engines.indexed.plan_host("").candidates.empty());
  // ||tracker.io^, ||sync.tracker.io^, ||stats.net, ||a.b.c.example.com^
  // and ||example.com^ are decided by the host; the other six are not.
  EXPECT_EQ(engines.indexed.index_stats().anchored_rules, 11U);
  EXPECT_EQ(engines.indexed.index_stats().host_decided_rules, 5U);
}

/// The host plan's tokens: a URL whose host is the request host is
/// tokenized only outside the host, and the plan stands in with the
/// host's tokens that may key a bucket — unless there are more of them
/// than the plan holds, when the whole URL is tokenized.
TEST(EngineEquivalence, HostTokensAgreeWithReference) {
  EnginePair engines;
  engines.add("tokens", {
                            ".t1.",
                            ".t2.$third-party",
                            ".t4.",
                            ".t5.",
                            "@@.t3.$domain=allowed.org",
                            "@@.t2.*optout",
                        });
  const std::string five = "a.t1.t2.t3.t4.t5.example.com";
  const std::string four = "a.t1.t2.t3.t4.example.com";
  const std::string two = "a.t1.t3.example.com";
  EXPECT_FALSE(engines.indexed.plan_host(five).host_tokens_known);
  ASSERT_EQ(HostPlan::kHostTokenCap, 4U);
  EXPECT_TRUE(engines.indexed.plan_host(four).host_tokens_known);
  EXPECT_EQ(engines.indexed.plan_host(four).host_token_count, 4U);
  EXPECT_EQ(engines.indexed.plan_host(two).host_token_count, 2U);
  EXPECT_EQ(engines.indexed.plan_host("plain.example.com").host_token_count, 0U);

  std::vector<RequestStorage> requests;
  for (const std::string& host : {five, four, two, std::string("plain.example.com")}) {
    for (const std::string path : {"/", "/x/optout", "/p.t5.q"}) {
      for (const std::string page : {"news.org", "allowed.org"}) {
        for (const bool third_party : {true, false}) {
          requests.push_back({"https://" + host + path, host, page, third_party});
          requests.push_back({"https://" + host, host, page, third_party});
        }
      }
    }
  }
  for (const auto& request : requests) {
    engines.expect_agree(make_context(request.url, request.host, request.page_host,
                                      request.third_party));
  }

  // Schemes that fill the 128-token stack buffer before, at and inside
  // the skipped host's tokens: the stream resumes before or at the host
  // and revisits it.
  for (const int scheme_tokens : {125, 126, 127, 128, 200}) {
    std::string scheme;
    for (int i = 1; i < scheme_tokens; ++i) scheme += "s" + std::to_string(i) + ".";
    scheme += "x";
    for (const std::string& host : {two, four}) {
      for (const std::string path : {"/", "/x/optout", "/p.t5.q"}) {
        const std::string url = scheme + "://" + host + path;
        engines.expect_agree(make_context(url, host, "news.org", true));
        engines.expect_agree(make_context(url, host, "allowed.org", true));
      }
    }
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
