// Minimal URL parser covering the subset that web-tracking requests use:
// scheme://host[:port]/path[?query]. The classifier inspects hosts, paths
// and query arguments; fragments and userinfo are out of scope.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cbwt::net {

/// The query that `Url::parse(text)` keeps, as a view into `text`: the
/// bytes after the first '?' that follows the authority, up to any '#'.
/// Nothing else is validated, so it is empty when there is none and
/// equals `Url::parse(text)->query()` whenever parse accepts `text`.
/// Allocation-free: the classifier's keyword stage scans it in place.
[[nodiscard]] std::string_view query_of(std::string_view text) noexcept;

/// Parsed URL with value semantics; construct via Url::parse.
class Url {
 public:
  /// Parses an absolute http(s) URL; nullopt if scheme or host is missing.
  [[nodiscard]] static std::optional<Url> parse(std::string_view text);

  [[nodiscard]] const std::string& scheme() const noexcept { return scheme_; }
  [[nodiscard]] const std::string& host() const noexcept { return host_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Path always begins with '/'.
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& query() const noexcept { return query_; }

  [[nodiscard]] bool is_https() const noexcept { return scheme_ == "https"; }
  /// True when the URL carries query arguments ("?k=v&…"). The paper's
  /// stage-2 classifier keys on this.
  [[nodiscard]] bool has_arguments() const noexcept { return !query_.empty(); }

  /// Query key/value pairs in order of appearance (valueless keys allowed).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> arguments() const;

  /// Everything after the scheme separator: host[:port]/path[?query].
  [[nodiscard]] std::string host_and_rest() const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::string scheme_;
  std::string host_;
  std::uint16_t port_ = 0;
  std::string path_ = "/";
  std::string query_;
};

}  // namespace cbwt::net
