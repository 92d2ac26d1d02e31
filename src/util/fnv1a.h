// FNV-1a 64: the one stable byte hash. Two of its uses are on disk, so
// its values must never change: store superblock checksums, and the
// fault-site hashes folded into a join manifest's fault signature (which
// also fix which records a fault plan drops). String-keyed containers
// (util::StringHash) and the filter engine's token index use it too, but
// live only in memory; they need it to be deterministic, not stable
// across versions. The classifier's URL-identity hash is not FNV: it is
// a word-at-a-time hash local to src/classify.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace cbwt::util {

inline constexpr std::uint64_t kFnv1aOffset = 0xCBF29CE484222325ULL;

namespace detail {

template <typename Byte>
[[nodiscard]] constexpr std::uint64_t fnv1a_fold(const Byte* data, std::size_t size,
                                                 std::uint64_t hash) noexcept {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<std::uint8_t>(data[i]);
    hash *= 0x100000001B3ULL;  // FNV prime
  }
  return hash;
}

}  // namespace detail

/// FNV-1a over `bytes`, incremental: fold chunks by threading the
/// running hash back in as `seed`, so a streaming writer never needs
/// the whole payload in memory at once.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                            std::uint64_t seed = kFnv1aOffset) noexcept {
  return detail::fnv1a_fold(bytes.data(), bytes.size(), seed);
}

/// FNV-1a over the bytes of `text`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view text) noexcept {
  return detail::fnv1a_fold(text.data(), text.size(), kFnv1aOffset);
}

}  // namespace cbwt::util
