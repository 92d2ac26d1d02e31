// Fuzz target for the URL parser (src/net/url.cpp): the classifier's
// stage-2/3 entry point for untrusted extension-dataset bytes.
//
// Checks, beyond "does not crash under ASan/UBSan":
//   - documented accessor invariants hold on every accepted parse
//   - to_string() of an accepted parse re-parses to the same value
//     (canonicalization is a fixpoint)
//   - net::query_of, the classifier's in-place query scan, views exactly
//     the query an accepted parse keeps
#include <cstdint>
#include <string_view>

#include "net/url.h"
#include "util/contract.h"

namespace {

void check_invariants(const cbwt::net::Url& url) {
  CBWT_ASSERT(!url.host().empty());
  CBWT_ASSERT(url.scheme() == "http" || url.scheme() == "https");
  CBWT_ASSERT(!url.path().empty() && url.path().front() == '/');
  CBWT_ASSERT(url.port() != 0);
  CBWT_ASSERT(url.has_arguments() == !url.query().empty());
  // An empty query must never yield key/value pairs.
  CBWT_ASSERT(!url.query().empty() || url.arguments().empty());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view text =
      size == 0 ? std::string_view{}
                : std::string_view(reinterpret_cast<const char*>(data), size);
  const auto url = cbwt::net::Url::parse(text);
  if (!url) return 0;
  check_invariants(*url);
  CBWT_ASSERT(cbwt::net::query_of(text) == url->query());

  const auto reparsed = cbwt::net::Url::parse(url->to_string());
  CBWT_ASSERT(reparsed.has_value());
  check_invariants(*reparsed);
  CBWT_ASSERT(reparsed->host() == url->host());
  CBWT_ASSERT(reparsed->port() == url->port());
  CBWT_ASSERT(reparsed->path() == url->path());
  CBWT_ASSERT(reparsed->query() == url->query());
  return 0;
}
