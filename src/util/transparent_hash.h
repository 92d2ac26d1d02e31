// Heterogeneous ("transparent") string hashing for unordered containers:
// lets a std::unordered_map with std::string keys be probed with a
// std::string_view without materializing a temporary std::string — the
// C++20 heterogeneous-lookup protocol (P1690). Hot paths that walk host
// suffixes or token spans stay allocation-free.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/fnv1a.h"

namespace cbwt::util {

/// FNV-1a of the string: stable across platforms, so data structures
/// keyed by it stay deterministic.
struct StringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view text) const noexcept {
    return static_cast<std::size_t>(fnv1a(text));
  }
};

/// unordered_map<string, V> probeable with string_view keys.
template <typename V>
using StringMap = std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

using StringSet = std::unordered_set<std::string, StringHash, std::equal_to<>>;

}  // namespace cbwt::util
