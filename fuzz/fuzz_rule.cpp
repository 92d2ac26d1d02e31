// Fuzz target for the AdBlockPlus rule parser and matcher
// (src/filterlist/rule.cpp): filter-list lines are external inputs in
// the real pipeline, and mis-parsed rules silently skew Table 2.
//
// Every accepted rule is matched against a small fixed set of request
// contexts so the matcher's position arithmetic runs on every parse,
// and re-parsed from its stored text (parse must be a fixpoint). The
// fuzzed rule is also loaded (together with a fixed base list) into
// both the token-indexed Engine and the naive ReferenceEngine, which
// must agree on every context, through match(request) and through
// match(request, plan_host(request.host)) — so the fuzzer cross-checks
// the compiled fast path against the executable spec on adversarial
// rules. The contexts' request host is the URL's host in the first URL
// only, so the host plans' URL-host check is exercised both ways.
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "filterlist/engine.h"
#include "filterlist/reference.h"
#include "filterlist/rule.h"
#include "util/contract.h"

namespace {

constexpr std::string_view kUrls[] = {
    "http://ads.tracker.com/pixel?uid=1",
    "https://cdn.site.org/lib.js",
    "https://sub.ads.example.co.uk:8443/a/b^c",
    "http://x/",
};

cbwt::filterlist::RequestContext context_for(std::string_view url) {
  cbwt::filterlist::RequestContext context;
  context.url = url;
  context.host = "ads.tracker.com";
  context.page_host = "news.site.org";
  context.third_party = true;
  return context;
}

void exercise_matcher(const cbwt::filterlist::Rule& rule) {
  for (const auto url : kUrls) {
    (void)cbwt::filterlist::rule_matches(rule, context_for(url));
  }
}

/// Indexed-vs-reference parity: both engines see the fuzzed line plus a
/// fixed base list (so exception interplay is exercised even when the
/// fuzzed rule is itself an exception) and must return the same verdict
/// and winning rule on every context.
void exercise_engines(std::string_view line) {
  const std::vector<std::string> lines = {
      std::string(line),
      "||ads.tracker.com^",
      "/pixel?",
      "@@||ads.tracker.com/allowed/",
  };
  cbwt::filterlist::Engine indexed;
  cbwt::filterlist::ReferenceEngine reference;
  indexed.add_list(cbwt::filterlist::FilterList("fuzz", lines));
  reference.add_list(cbwt::filterlist::FilterList("fuzz", lines));
  for (const auto url : kUrls) {
    const auto context = context_for(url);
    const auto want = reference.match(context);
    for (const auto& got :
         {indexed.match(context), indexed.match(context, indexed.plan_host(context.host))}) {
      CBWT_ASSERT(got.matched == want.matched);
      if (want.matched) {
        CBWT_ASSERT(got.rule->text == want.rule->text);
        CBWT_ASSERT(got.list == want.list);
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view line =
      size == 0 ? std::string_view{}
                : std::string_view(reinterpret_cast<const char*>(data), size);
  const auto rule = cbwt::filterlist::parse_rule(line);
  if (!rule) return 0;

  // parse_rule's postcondition, restated where the fuzzer can see it.
  CBWT_ASSERT(!rule->parts.empty() ||
              rule->anchor != cbwt::filterlist::AnchorKind::None || rule->end_anchor);
  exercise_matcher(*rule);
  exercise_engines(line);

  // The stored text must survive a round trip as the same rule shape.
  const auto reparsed = cbwt::filterlist::parse_rule(rule->text);
  CBWT_ASSERT(reparsed.has_value());
  CBWT_ASSERT(reparsed->exception == rule->exception);
  CBWT_ASSERT(reparsed->anchor == rule->anchor);
  CBWT_ASSERT(reparsed->end_anchor == rule->end_anchor);
  CBWT_ASSERT(reparsed->parts == rule->parts);
  return 0;
}
