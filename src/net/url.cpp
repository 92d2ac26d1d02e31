#include "net/url.h"

#include <charconv>

#include "util/contract.h"
#include "util/strings.h"

namespace cbwt::net {

namespace {

// RFC 1035 caps a full domain name at 253 octets; anything longer is
// hostile or corrupt input, not a real destination.
constexpr std::size_t kMaxHostLength = 253;

/// Hostname charset after lowering: letters, digits, '.', '-', '_'.
/// Rejecting everything else (spaces, brackets, stray ':', non-ASCII
/// bytes) keeps parse/to_string a fixpoint — see fuzz/fuzz_url.cpp.
bool valid_host(std::string_view host) noexcept {
  for (const char c : host) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '.' ||
                    c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

/// A URL's text split the way Url::parse reads it, as views into it.
struct Pieces {
  std::size_t scheme_end = std::string_view::npos;  ///< offset of "://"
  std::string_view authority;
  std::string_view path;   ///< empty when the URL has none
  std::string_view query;  ///< after the '?', empty when there is none
};

/// The one split of a URL's text, shared by Url::parse and query_of.
Pieces split_pieces(std::string_view text) noexcept {
  Pieces pieces;
  pieces.scheme_end = text.find("://");
  if (pieces.scheme_end == std::string_view::npos) return pieces;
  std::string_view rest = text.substr(pieces.scheme_end + 3);
  const std::size_t fragment = rest.find('#');
  if (fragment != std::string_view::npos) rest = rest.substr(0, fragment);

  // The authority ends at the first '/' or '?': "http://a.com?x=1" is a
  // query on the root path, not a host containing '?'.
  const std::size_t path_start = rest.find_first_of("/?");
  pieces.authority = rest.substr(0, path_start);
  if (path_start == std::string_view::npos) return pieces;
  const std::string_view path_query = rest.substr(path_start);
  const std::size_t q = path_query.find('?');
  pieces.path = path_query.substr(0, q);
  if (q != std::string_view::npos) pieces.query = path_query.substr(q + 1);
  return pieces;
}

}  // namespace

std::string_view query_of(std::string_view text) noexcept {
  return split_pieces(text).query;
}

std::optional<Url> Url::parse(std::string_view text) {
  const Pieces pieces = split_pieces(text);
  if (pieces.scheme_end == std::string_view::npos || pieces.scheme_end == 0) {
    return std::nullopt;
  }
  Url url;
  url.scheme_ = util::to_lower(text.substr(0, pieces.scheme_end));
  if (url.scheme_ != "http" && url.scheme_ != "https") return std::nullopt;
  url.port_ = url.scheme_ == "https" ? 443 : 80;

  std::string_view authority = pieces.authority;
  const std::size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    const auto port_text = authority.substr(colon + 1);
    std::uint16_t port = 0;
    const auto [ptr, ec] =
        std::from_chars(port_text.data(), port_text.data() + port_text.size(), port);
    if (ec != std::errc{} || ptr != port_text.data() + port_text.size() || port == 0) {
      return std::nullopt;
    }
    url.port_ = port;
    authority = authority.substr(0, colon);
  }
  if (authority.empty() || authority.size() > kMaxHostLength) return std::nullopt;
  url.host_ = util::to_lower(authority);
  if (!valid_host(url.host_)) return std::nullopt;

  // Assigned from views, never from temporaries or literals: GCC 12 at
  // -O3 flags those inlined assigns as an overlapping memcpy
  // (-Werror=restrict, a false positive). path_ defaults to "/".
  url.query_.assign(pieces.query);
  if (!pieces.path.empty()) url.path_.assign(pieces.path);
  // The accessor documentation promises these to every downstream stage
  // (classifier, filter engine); a parse that breaks them is a bug here,
  // not in the caller.
  CBWT_ENSURES(!url.host_.empty());
  CBWT_ENSURES(url.path_.front() == '/');
  CBWT_ENSURES(url.port_ != 0);
  return url;
}

std::vector<std::pair<std::string, std::string>> Url::arguments() const {
  std::vector<std::pair<std::string, std::string>> out;
  if (query_.empty()) return out;
  for (const auto pair : util::split(query_, '&')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      out.emplace_back(std::string(pair), std::string{});
    } else {
      out.emplace_back(std::string(pair.substr(0, eq)), std::string(pair.substr(eq + 1)));
    }
  }
  return out;
}

std::string Url::host_and_rest() const {
  CBWT_EXPECTS(!host_.empty());  // only parse() constructs, so host is set
  const bool default_port =
      (scheme_ == "https" && port_ == 443) || (scheme_ == "http" && port_ == 80);
  // Reserve-and-append, one allocation: ":65535" is at most 6 bytes.
  std::string out;
  out.reserve(host_.size() + 6 + path_.size() + 1 + query_.size());
  out.append(host_);
  if (!default_port) out.append(1, ':').append(std::to_string(port_));
  out.append(path_);
  if (!query_.empty()) out.append(1, '?').append(query_);
  return out;
}

std::string Url::to_string() const { return scheme_ + "://" + host_and_rest(); }

}  // namespace cbwt::net
