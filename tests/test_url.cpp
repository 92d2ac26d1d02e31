#include "net/url.h"

#include <gtest/gtest.h>

#include "net/domain.h"

namespace cbwt::net {
namespace {

TEST(Url, ParseFull) {
  const auto url = Url::parse("https://sync.tracker.com:8443/cm?uid=1&usermatch=1");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->scheme(), "https");
  EXPECT_EQ(url->host(), "sync.tracker.com");
  EXPECT_EQ(url->port(), 8443);
  EXPECT_EQ(url->path(), "/cm");
  EXPECT_EQ(url->query(), "uid=1&usermatch=1");
  EXPECT_TRUE(url->has_arguments());
  EXPECT_TRUE(url->is_https());
}

TEST(Url, DefaultPorts) {
  EXPECT_EQ(Url::parse("http://a.com/")->port(), 80);
  EXPECT_EQ(Url::parse("https://a.com/")->port(), 443);
}

TEST(Url, MissingPathBecomesRoot) {
  const auto url = Url::parse("https://a.com");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->path(), "/");
  EXPECT_FALSE(url->has_arguments());
}

TEST(Url, HostIsLowercased) {
  EXPECT_EQ(Url::parse("https://AdServe.COM/x")->host(), "adserve.com");
}

TEST(Url, FragmentsAreStripped) {
  const auto url = Url::parse("https://a.com/p?x=1#frag");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->query(), "x=1");
}

TEST(Url, RejectsBadInput) {
  EXPECT_FALSE(Url::parse("not a url").has_value());
  EXPECT_FALSE(Url::parse("ftp://a.com/").has_value());
  EXPECT_FALSE(Url::parse("https:///path").has_value());
  EXPECT_FALSE(Url::parse("https://a.com:0/").has_value());
  EXPECT_FALSE(Url::parse("https://a.com:notaport/").has_value());
  EXPECT_FALSE(Url::parse("").has_value());
}

TEST(Url, Arguments) {
  const auto url = Url::parse("https://a.com/p?k1=v1&k2=&flag&k3=v3");
  ASSERT_TRUE(url.has_value());
  const auto args = url->arguments();
  ASSERT_EQ(args.size(), 4U);
  EXPECT_EQ(args[0], (std::pair<std::string, std::string>{"k1", "v1"}));
  EXPECT_EQ(args[1], (std::pair<std::string, std::string>{"k2", ""}));
  EXPECT_EQ(args[2], (std::pair<std::string, std::string>{"flag", ""}));
  EXPECT_EQ(args[3], (std::pair<std::string, std::string>{"k3", "v3"}));
}

TEST(Url, EmptyQueryHasNoArguments) {
  const auto url = Url::parse("https://a.com/p?");
  ASSERT_TRUE(url.has_value());
  EXPECT_FALSE(url->has_arguments());
  EXPECT_TRUE(url->arguments().empty());
}

TEST(Url, RoundTrip) {
  for (const char* text :
       {"https://a.com/", "http://b.net/x/y?q=1", "https://c.org:8080/p?a=b&c=d"}) {
    const auto url = Url::parse(text);
    ASSERT_TRUE(url.has_value()) << text;
    EXPECT_EQ(url->to_string(), text);
  }
}

TEST(Domain, Labels) {
  const auto labels = domain_labels("a.b.co.uk");
  ASSERT_EQ(labels.size(), 4U);
  EXPECT_EQ(labels[0], "a");
  EXPECT_EQ(labels[3], "uk");
  EXPECT_TRUE(domain_labels("").empty());
}

TEST(Domain, PublicSuffix) {
  EXPECT_TRUE(is_public_suffix("com"));
  EXPECT_TRUE(is_public_suffix("co.uk"));
  EXPECT_FALSE(is_public_suffix("example.com"));
  EXPECT_EQ(public_suffix("a.b.example.co.uk"), "co.uk");
  EXPECT_EQ(public_suffix("example.com"), "com");
  EXPECT_EQ(public_suffix("localhost"), "");
}

TEST(Domain, RegistrableDomain) {
  EXPECT_EQ(registrable_domain("sync.ads.example.com"), "example.com");
  EXPECT_EQ(registrable_domain("example.com"), "example.com");
  EXPECT_EQ(registrable_domain("x.example.co.uk"), "example.co.uk");
  // No recognized suffix: the input is its own site.
  EXPECT_EQ(registrable_domain("intranet"), "intranet");
  // Bare public suffix has no registrable domain below it.
  EXPECT_EQ(registrable_domain("com"), "com");
}

TEST(Domain, Subdomains) {
  EXPECT_TRUE(is_subdomain_of("a.b.com", "b.com"));
  EXPECT_TRUE(is_subdomain_of("b.com", "b.com"));
  EXPECT_FALSE(is_subdomain_of("ab.com", "b.com"));  // label boundary respected
  EXPECT_FALSE(is_subdomain_of("b.com", "a.b.com"));
}

TEST(Domain, SameSite) {
  EXPECT_TRUE(same_site("cdn.shop.com", "www.shop.com"));
  EXPECT_FALSE(same_site("shop.com", "shop.net"));
  EXPECT_FALSE(same_site("a.example.co.uk", "a.other.co.uk"));
}

// ------------------------------------------------- parser edge cases
// Promoted from fuzz/fuzz_url.cpp findings and its seed corpus
// (fuzz/corpus/url); keep in sync when new crashers are minimized.

TEST(UrlEdgeCases, EmptyAndWhitespaceInput) {
  EXPECT_FALSE(Url::parse("").has_value());
  EXPECT_FALSE(Url::parse(" ").has_value());
  EXPECT_FALSE(Url::parse("://").has_value());
  EXPECT_FALSE(Url::parse("https://").has_value());
}

TEST(UrlEdgeCases, NonUtf8BytesRejected) {
  EXPECT_FALSE(Url::parse("http://\xC3\xA9\xFF\xFE.com/").has_value());
  EXPECT_FALSE(Url::parse(std::string_view("http://a\0b.com/", 15)).has_value());
}

TEST(UrlEdgeCases, OversizedHostRejected) {
  // RFC 1035 caps a domain name at 253 octets.
  const std::string at_limit = "https://" + std::string(249, 'a') + ".com/";
  EXPECT_TRUE(Url::parse(at_limit).has_value());
  const std::string over_limit = "https://" + std::string(250, 'a') + ".com/";
  EXPECT_FALSE(Url::parse(over_limit).has_value());
}

TEST(UrlEdgeCases, HostCharsetEnforced) {
  // Fuzzer-found: "[::1]" used to parse but its to_string() did not
  // re-parse, breaking the canonicalization fixpoint.
  EXPECT_FALSE(Url::parse("http://[::1]:80/").has_value());
  EXPECT_FALSE(Url::parse("http://a b/").has_value());
  EXPECT_FALSE(Url::parse("http://a,b.com/").has_value());
  EXPECT_TRUE(Url::parse("http://a-b_c.com/").has_value());
}

TEST(UrlEdgeCases, ToStringReparsesToSameValue) {
  const auto url = Url::parse("HTTPS://Sync.Tracker.COM:8443/cm?uid=1&flag#frag");
  ASSERT_TRUE(url.has_value());
  const auto reparsed = Url::parse(url->to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->host(), url->host());
  EXPECT_EQ(reparsed->port(), url->port());
  EXPECT_EQ(reparsed->path(), url->path());
  EXPECT_EQ(reparsed->query(), url->query());
}

TEST(UrlEdgeCases, QueryWithoutPath) {
  // No '/' before '?': the query belongs to the root path, it is not
  // part of the host (fuzzer-found roundtrip break in the seed parser).
  const auto url = Url::parse("http://a.com?x=1");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->host(), "a.com");
  EXPECT_EQ(url->path(), "/");
  EXPECT_EQ(url->query(), "x=1");
  const auto reparsed = Url::parse(url->to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->host(), url->host());
  EXPECT_EQ(reparsed->query(), url->query());
}

TEST(UrlEdgeCases, QueryOfViewsTheParsedQuery) {
  // query_of needs no parse: it views the text Url::parse keeps as the
  // query, and is empty wherever the parse has none.
  for (const std::string_view text :
       {"https://a.com/p?k=v&x", "http://a.com?x=1", "https://a.com/p#f?k=v",
        "https://a.com/p?k=v#f?x", "https://a.com/p?", "https://a.com/p",
        "https://a.com:8443/?a?b=1", "HTTPS://A.COM/P?Q=1"}) {
    const auto url = Url::parse(text);
    ASSERT_TRUE(url.has_value()) << text;
    EXPECT_EQ(query_of(text), url->query()) << text;
  }
  // A view into the input, not a copy.
  const std::string_view text = "https://a.com/p?k=v";
  EXPECT_EQ(query_of(text).data(), text.data() + text.find('?') + 1);
  // Rejected URLs still split the same way; they only fail validation.
  EXPECT_EQ(query_of("ftp://a.com/p?k=v"), "k=v");
  EXPECT_EQ(query_of("no-scheme?k=v"), "");
}

}  // namespace
}  // namespace cbwt::net
