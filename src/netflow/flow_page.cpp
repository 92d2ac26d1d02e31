// Flow-page codec. The payload is a dense run of varint-compressed
// records; the header carries geometry plus an FNV-1a checksum so a
// torn or bit-rotted page is rejected before any record decodes.
//
// The encoding is canonical — exactly one byte sequence per record
// sequence — which is what makes encode∘parse a fixpoint: varints are
// minimal-length LEB128 (a continuation byte whose payload would add
// only leading zeros is rejected), reserved flag bits must be zero,
// the declared payload length must be consumed exactly, and the
// padding after the payload must be all zero bytes.
#include "netflow/flow_page.h"

#include <cstring>

#include "store/bytes.h"
#include "util/contract.h"
#include "util/fnv1a.h"

namespace cbwt::netflow {
namespace {

/// Page magic ("flow page", arbitrary but fixed).
constexpr std::uint16_t kFlowPageMagic = 0xF10A;

/// Record flag bits. Bits 3..7 are reserved-zero.
constexpr std::uint8_t kFlagInternal = 0x01;
constexpr std::uint8_t kFlagSrcV6 = 0x02;
constexpr std::uint8_t kFlagDstV6 = 0x04;
constexpr std::uint8_t kFlagReservedMask = 0xF8;

/// Bytes a minimal LEB128 encoding of `value` occupies (1..5 for u32).
[[nodiscard]] constexpr std::size_t varint_size(std::uint32_t value) noexcept {
  std::size_t size = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++size;
  }
  return size;
}

void put_varint(std::uint8_t*& out, std::uint32_t value) noexcept {
  while (value >= 0x80) {
    *out++ = static_cast<std::uint8_t>(value | 0x80U);
    value >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(value);
}

/// Cursor over the payload: every read checks the remaining length, so
/// a record that overruns the declared payload is caught in place.
struct Reader {
  const std::uint8_t* cursor;
  const std::uint8_t* end;

  [[nodiscard]] bool take_u8(std::uint8_t& out) noexcept {
    if (cursor == end) return false;
    out = *cursor++;
    return true;
  }

  /// Minimal-length LEB128 with a field-width cap: a u16 field may use
  /// at most 3 bytes, a u32 at most 5, and the final byte's payload
  /// must not overflow the field or be a redundant zero continuation.
  [[nodiscard]] bool take_varint(std::uint32_t& out, std::uint32_t max) noexcept {
    std::uint64_t value = 0;
    unsigned shift = 0;
    for (;;) {
      std::uint8_t byte = 0;
      if (!take_u8(byte)) return false;
      value |= std::uint64_t{byte & 0x7FU} << shift;
      if ((byte & 0x80U) == 0) {
        // Canonicality: a multi-byte varint must not end in a zero
        // byte (that zero adds nothing and shorter encodings exist).
        if (shift != 0 && byte == 0) return false;
        break;
      }
      shift += 7;
      if (shift >= 35) return false;  // five continuation bytes cannot happen for u32
    }
    if (value > max) return false;
    out = static_cast<std::uint32_t>(value);
    return true;
  }

  [[nodiscard]] bool take_address(bool is_v6, net::IpAddress& out) noexcept {
    if (is_v6) {
      if (end - cursor < 16) return false;
      out = net::IpAddress::v6(store::get_u64(cursor), store::get_u64(cursor + 8));
      cursor += 16;
    } else {
      if (end - cursor < 4) return false;
      out = net::IpAddress::v4(store::get_u32(cursor));
      cursor += 4;
    }
    return true;
  }
};

void put_address(std::uint8_t*& out, const net::IpAddress& ip) noexcept {
  if (ip.is_v4()) {
    store::put_u32(out, ip.v4_value());
    out += 4;
  } else {
    store::put_u64(out, ip.hi());
    store::put_u64(out + 8, ip.lo());
    out += 16;
  }
}

[[nodiscard]] std::uint32_t payload_checksum(const std::uint8_t* payload,
                                             std::size_t length) noexcept {
  return static_cast<std::uint32_t>(util::fnv1a({payload, length}));
}

/// Encodes one record at `cursor` (the caller guarantees fit). The
/// single source of truth both page encoders lower through — the
/// canonical encoding lives here once, so the batch encoder
/// (encode_flow_page) and the in-place builder (FlowPageImageBuilder)
/// cannot drift apart.
void encode_record_at(std::uint8_t*& cursor, const RawRecord& record) noexcept {
  std::uint8_t flags = 0;
  if (record.internal_interface) flags |= kFlagInternal;
  if (!record.src.is_v4()) flags |= kFlagSrcV6;
  if (!record.dst.is_v4()) flags |= kFlagDstV6;
  *cursor++ = flags;
  put_varint(cursor, record.timestamp_s);
  put_varint(cursor, record.router);
  put_varint(cursor, record.interface);
  *cursor++ = record.protocol;
  put_address(cursor, record.src);
  put_address(cursor, record.dst);
  put_varint(cursor, record.src_port);
  put_varint(cursor, record.dst_port);
  put_varint(cursor, record.packets);
  put_varint(cursor, record.bytes);
  *cursor++ = record.tos;
}

/// Stamps the page header and zero-pads the tail over an already
/// encoded payload of `payload_bytes` holding `records` records.
void seal_page(std::uint8_t* out, std::size_t records,
               std::size_t payload_bytes) noexcept {
  store::put_u16(out, kFlowPageMagic);
  out[2] = kFlowPageVersion;
  out[3] = 0;
  store::put_u16(out + 4, static_cast<std::uint16_t>(records));
  store::put_u16(out + 6, static_cast<std::uint16_t>(payload_bytes));
  store::put_u32(out + 8, payload_checksum(out + kFlowPageHeaderBytes, payload_bytes));
  std::memset(out + kFlowPageHeaderBytes + payload_bytes, 0,
              kFlowPageBytes - kFlowPageHeaderBytes - payload_bytes);
}

}  // namespace

std::size_t compressed_record_size(const RawRecord& record) noexcept {
  std::size_t size = 1;  // flags
  size += varint_size(record.timestamp_s);
  size += varint_size(record.router);
  size += varint_size(record.interface);
  size += 1;  // protocol
  size += record.src.is_v4() ? 4 : 16;
  size += record.dst.is_v4() ? 4 : 16;
  size += varint_size(record.src_port);
  size += varint_size(record.dst_port);
  size += varint_size(record.packets);
  size += varint_size(record.bytes);
  size += 1;  // tos
  return size;
}

void encode_flow_page(const FlowPage& page, std::uint8_t* out) {
  CBWT_EXPECTS(page.records.size() <= 0xFFFF);
  std::uint8_t* cursor = out + kFlowPageHeaderBytes;
  for (const RawRecord& record : page.records) encode_record_at(cursor, record);
  const auto payload_bytes = static_cast<std::size_t>(cursor - out) - kFlowPageHeaderBytes;
  CBWT_EXPECTS(kFlowPageHeaderBytes + payload_bytes <= kFlowPageBytes);
  seal_page(out, page.records.size(), payload_bytes);
}

std::optional<FlowPage> parse_flow_page(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kFlowPageBytes) return std::nullopt;
  const std::uint8_t* data = bytes.data();
  if (store::get_u16(data) != kFlowPageMagic) return std::nullopt;
  if (data[2] != kFlowPageVersion) return std::nullopt;
  if (data[3] != 0) return std::nullopt;
  const std::uint16_t record_count = store::get_u16(data + 4);
  const std::uint16_t payload_bytes = store::get_u16(data + 6);
  if (kFlowPageHeaderBytes + std::size_t{payload_bytes} > kFlowPageBytes) {
    return std::nullopt;
  }
  if (store::get_u32(data + 8) !=
      payload_checksum(data + kFlowPageHeaderBytes, payload_bytes)) {
    return std::nullopt;
  }

  Reader reader{data + kFlowPageHeaderBytes,
                data + kFlowPageHeaderBytes + payload_bytes};
  FlowPage page;
  page.records.reserve(record_count);
  for (std::uint16_t i = 0; i < record_count; ++i) {
    RawRecord record;
    std::uint8_t flags = 0;
    if (!reader.take_u8(flags)) return std::nullopt;
    if ((flags & kFlagReservedMask) != 0) return std::nullopt;
    record.internal_interface = (flags & kFlagInternal) != 0;
    std::uint32_t value = 0;
    if (!reader.take_varint(value, 0xFFFFFFFFU)) return std::nullopt;
    record.timestamp_s = value;
    if (!reader.take_varint(value, 0xFFFFU)) return std::nullopt;
    record.router = static_cast<std::uint16_t>(value);
    if (!reader.take_varint(value, 0xFFFFU)) return std::nullopt;
    record.interface = static_cast<std::uint16_t>(value);
    if (!reader.take_u8(record.protocol)) return std::nullopt;
    if (!reader.take_address((flags & kFlagSrcV6) != 0, record.src)) return std::nullopt;
    if (!reader.take_address((flags & kFlagDstV6) != 0, record.dst)) return std::nullopt;
    if (!reader.take_varint(value, 0xFFFFU)) return std::nullopt;
    record.src_port = static_cast<std::uint16_t>(value);
    if (!reader.take_varint(value, 0xFFFFU)) return std::nullopt;
    record.dst_port = static_cast<std::uint16_t>(value);
    if (!reader.take_varint(value, 0xFFFFFFFFU)) return std::nullopt;
    record.packets = value;
    if (!reader.take_varint(value, 0xFFFFFFFFU)) return std::nullopt;
    record.bytes = value;
    if (!reader.take_u8(record.tos)) return std::nullopt;
    page.records.push_back(record);
  }
  if (reader.cursor != reader.end) return std::nullopt;  // undeclared trailing payload
  for (const std::uint8_t* pad = reader.end; pad != data + kFlowPageBytes; ++pad) {
    if (*pad != 0) return std::nullopt;
  }
  return page;
}

bool FlowPageBuilder::try_add(const RawRecord& record) {
  const std::size_t size = compressed_record_size(record);
  if (kFlowPageHeaderBytes + payload_bytes_ + size > kFlowPageBytes) return false;
  if (page_.records.size() >= 0xFFFF) return false;
  page_.records.push_back(record);
  payload_bytes_ += size;
  return true;
}

FlowPage FlowPageBuilder::take() noexcept {
  FlowPage page = std::move(page_);
  page_ = FlowPage{};
  payload_bytes_ = 0;
  return page;
}

bool FlowPageImageBuilder::try_add(const RawRecord& record) {
  const std::size_t size = compressed_record_size(record);
  if (kFlowPageHeaderBytes + payload_bytes_ + size > kFlowPageBytes) return false;
  if (count_ >= 0xFFFF) return false;
  std::uint8_t* cursor = image_.bytes.data() + kFlowPageHeaderBytes + payload_bytes_;
  encode_record_at(cursor, record);
  CBWT_ASSERT(cursor ==
              image_.bytes.data() + kFlowPageHeaderBytes + payload_bytes_ + size);
  payload_bytes_ += size;
  ++count_;
  return true;
}

void FlowPageImageBuilder::seal_into(std::vector<FlowPageImage>& out) {
  CBWT_EXPECTS(count_ > 0);
  seal_page(image_.bytes.data(), count_, payload_bytes_);
  out.push_back(image_);
  count_ = 0;
  payload_bytes_ = 0;
}

}  // namespace cbwt::netflow
