// Byte-order primitives for the on-disk store formats: every multi-byte
// field is serialized big-endian through explicit shifts, so store files
// written on any host parse identically on any other (the same
// normalization discipline as the NetFlow wire codec, which is the
// store's first record format). util::fnv1a is the payload checksum of
// the superblock — not cryptographic, just a cheap end-to-end bit-rot
// and truncation detector.
#pragma once

#include <climits>
#include <cstddef>
#include <cstdint>

namespace cbwt::store {

static_assert(CHAR_BIT == 8, "store formats assume octet bytes");

inline void put_u16(std::uint8_t* out, std::uint16_t value) noexcept {
  out[0] = static_cast<std::uint8_t>(value >> 8);
  out[1] = static_cast<std::uint8_t>(value);
}

inline void put_u32(std::uint8_t* out, std::uint32_t value) noexcept {
  out[0] = static_cast<std::uint8_t>(value >> 24);
  out[1] = static_cast<std::uint8_t>(value >> 16);
  out[2] = static_cast<std::uint8_t>(value >> 8);
  out[3] = static_cast<std::uint8_t>(value);
}

inline void put_u64(std::uint8_t* out, std::uint64_t value) noexcept {
  put_u32(out, static_cast<std::uint32_t>(value >> 32));
  put_u32(out + 4, static_cast<std::uint32_t>(value));
}

[[nodiscard]] inline std::uint16_t get_u16(const std::uint8_t* in) noexcept {
  return static_cast<std::uint16_t>((std::uint16_t{in[0]} << 8) | in[1]);
}

[[nodiscard]] inline std::uint32_t get_u32(const std::uint8_t* in) noexcept {
  return (std::uint32_t{in[0]} << 24) | (std::uint32_t{in[1]} << 16) |
         (std::uint32_t{in[2]} << 8) | std::uint32_t{in[3]};
}

[[nodiscard]] inline std::uint64_t get_u64(const std::uint8_t* in) noexcept {
  return (std::uint64_t{get_u32(in)} << 32) | get_u32(in + 4);
}

}  // namespace cbwt::store
