// Binary form of one sampled flow record: a NetFlow v9-flavoured
// fixed-size layout, and the record format of store-backed snapshot
// files (WireCodec below). Decoding is where bytes read back from disk
// become structs, so parsing is defensive: any malformed record —
// wrong length, bad address family, dirty v4 high bits, reserved flag
// bits — yields nullopt instead of a garbage struct.
#pragma once

#include <bit>
#include <climits>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netflow/record.h"

namespace cbwt::netflow {

// The codec assembles every multi-byte field from explicit byte shifts,
// so it emits network order on little- and big-endian hosts alike and
// never reinterprets a struct's in-memory bytes. These guards pin the
// two assumptions that reasoning rests on: octet bytes, and a host
// whose scalar endianness is one of the two shift-friendly orders
// (mixed-endian targets would need a real byte-swapping port).
static_assert(CHAR_BIT == 8, "netflow wire codec requires octet bytes");
static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "netflow wire codec requires a little- or big-endian host");

/// Bytes per encoded record (fixed layout, see wire.cpp).
inline constexpr std::size_t kWireRecordSize = 57;

/// Serializes one record into its fixed 57-byte layout.
[[nodiscard]] std::vector<std::uint8_t> encode_record(const RawRecord& record);

/// Serializes one record into exactly kWireRecordSize bytes at `out`,
/// allocation-free — the hot path for store-backed snapshot export.
void encode_record_into(const RawRecord& record, std::uint8_t* out);

/// Decodes exactly one record from exactly kWireRecordSize bytes.
/// Rejects wrong sizes and malformed address-family tags.
[[nodiscard]] std::optional<RawRecord> parse_record(std::span<const std::uint8_t> bytes);

/// store::RecordCodec adapter: the 57-byte wire layout doubles as the
/// store's first on-disk record format. Kept free of store includes —
/// the concept is duck-typed and kKind mirrors
/// store::RecordKind::NetflowWire (pinned by a static_assert where the
/// two headers meet, in netflow/snapshot_store.cpp).
struct WireCodec {
  using value_type = RawRecord;
  static constexpr std::size_t kRecordSize = kWireRecordSize;
  static constexpr std::uint16_t kKind = 1;  // store::RecordKind::NetflowWire
  static void encode(const RawRecord& record, std::uint8_t* out) {
    encode_record_into(record, out);
  }
  static std::optional<RawRecord> decode(const std::uint8_t* in) {
    return parse_record({in, kWireRecordSize});
  }
};

}  // namespace cbwt::netflow
