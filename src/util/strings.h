// String helpers shared across cbwt modules. All functions are pure and
// allocation is avoided where a view suffices.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace cbwt::util {

/// Splits on a single character; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text, char sep);

/// Joins pieces with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& pieces, std::string_view sep);

/// ASCII lower-casing (tracking domains and URLs are ASCII in this model).
[[nodiscard]] std::string to_lower(std::string_view text);

/// Case-sensitive containment test.
[[nodiscard]] bool contains(std::string_view haystack, std::string_view needle) noexcept;

[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// printf-style double formatting with fixed decimals, e.g. fmt_pct(84.93,2)
/// -> "84.93%".
[[nodiscard]] std::string fmt_fixed(double value, int decimals);
[[nodiscard]] std::string fmt_pct(double value, int decimals = 2);

/// Thousands-separated integer, e.g. 7172752 -> "7,172,752".
[[nodiscard]] std::string fmt_count(std::uint64_t value);

/// Parses all of `value`, the setting `name` (an environment variable or
/// a flag), as a T: a finite one for floating point, a non-negative one
/// in range for unsigned types. Anything else throws std::invalid_argument
/// naming the setting and what it `expected`.
template <typename T>
[[nodiscard]] T parse_env(std::string_view name, std::string_view value,
                          std::string_view expected) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  bool valid = error == std::errc{} && stop == end;
  if constexpr (std::is_floating_point_v<T>) {
    valid = valid && std::isfinite(parsed);  // from_chars reads "nan" and "inf"
  }
  if (!valid) {
    throw std::invalid_argument(std::string(name) + "=\"" + std::string(value) +
                                "\": expected " + std::string(expected));
  }
  return parsed;
}

}  // namespace cbwt::util
