#include "netflow/wire.h"

#include "util/contract.h"

namespace cbwt::netflow {

namespace {

// Record layout, all multi-byte fields big-endian (network order):
//
//   offset size  field
//   0      4     timestamp_s
//   4      2     router
//   6      2     interface
//   8      1     flags (bit 0: internal_interface)
//   9      1     protocol
//   10     1     src address family tag (4 or 6)
//   11     16    src address, 128-bit (v4 occupies the low 32 bits)
//   27     1     dst address family tag
//   28     16    dst address
//   44     2     src_port
//   46     2     dst_port
//   48     4     packets
//   52     4     bytes
//   56     1     tos
//   ----- 57 bytes total

void put_u16(std::uint8_t* out, std::uint16_t value) {
  out[0] = static_cast<std::uint8_t>(value >> 8);
  out[1] = static_cast<std::uint8_t>(value);
}

void put_u32(std::uint8_t* out, std::uint32_t value) {
  out[0] = static_cast<std::uint8_t>(value >> 24);
  out[1] = static_cast<std::uint8_t>(value >> 16);
  out[2] = static_cast<std::uint8_t>(value >> 8);
  out[3] = static_cast<std::uint8_t>(value);
}

void put_u64(std::uint8_t* out, std::uint64_t value) {
  put_u32(out, static_cast<std::uint32_t>(value >> 32));
  put_u32(out + 4, static_cast<std::uint32_t>(value));
}

void put_address(std::uint8_t* out, const net::IpAddress& ip) {
  out[0] = ip.is_v4() ? 4 : 6;
  put_u64(out + 1, ip.hi());
  put_u64(out + 9, ip.lo());
}

std::uint16_t get_u16(std::span<const std::uint8_t> bytes, std::size_t at) {
  CBWT_EXPECTS(at + 2 <= bytes.size());
  return static_cast<std::uint16_t>((bytes[at] << 8) | bytes[at + 1]);
}

std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t at) {
  CBWT_EXPECTS(at + 4 <= bytes.size());
  return (std::uint32_t{bytes[at]} << 24) | (std::uint32_t{bytes[at + 1]} << 16) |
         (std::uint32_t{bytes[at + 2]} << 8) | std::uint32_t{bytes[at + 3]};
}

std::uint64_t get_u64(std::span<const std::uint8_t> bytes, std::size_t at) {
  return (std::uint64_t{get_u32(bytes, at)} << 32) | get_u32(bytes, at + 4);
}

std::optional<net::IpAddress> get_address(std::span<const std::uint8_t> bytes,
                                          std::size_t at) {
  const std::uint8_t family = bytes[at];
  const std::uint64_t hi = get_u64(bytes, at + 1);
  const std::uint64_t lo = get_u64(bytes, at + 9);
  if (family == 4) {
    // An IPv4 tag with bits above the low 32 set is a corrupt record,
    // not a representable address.
    if (hi != 0 || lo > 0xFFFFFFFFULL) return std::nullopt;
    return net::IpAddress::v4(static_cast<std::uint32_t>(lo));
  }
  if (family == 6) return net::IpAddress::v6(hi, lo);
  return std::nullopt;
}

}  // namespace

void encode_record_into(const RawRecord& record, std::uint8_t* out) {
  put_u32(out + 0, record.timestamp_s);
  put_u16(out + 4, record.router);
  put_u16(out + 6, record.interface);
  out[8] = record.internal_interface ? 1 : 0;
  out[9] = record.protocol;
  put_address(out + 10, record.src);
  put_address(out + 27, record.dst);
  put_u16(out + 44, record.src_port);
  put_u16(out + 46, record.dst_port);
  put_u32(out + 48, record.packets);
  put_u32(out + 52, record.bytes);
  out[56] = record.tos;
}

std::vector<std::uint8_t> encode_record(const RawRecord& record) {
  std::vector<std::uint8_t> out(kWireRecordSize);
  encode_record_into(record, out.data());
  return out;
}

std::optional<RawRecord> parse_record(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kWireRecordSize) return std::nullopt;
  const std::uint8_t flags = bytes[8];
  if ((flags & ~std::uint8_t{1}) != 0) return std::nullopt;  // reserved bits
  RawRecord record;
  record.timestamp_s = get_u32(bytes, 0);
  record.router = get_u16(bytes, 4);
  record.interface = get_u16(bytes, 6);
  record.internal_interface = (flags & 1) != 0;
  record.protocol = bytes[9];
  const auto src = get_address(bytes, 10);
  if (!src) return std::nullopt;
  record.src = *src;
  const auto dst = get_address(bytes, 27);
  if (!dst) return std::nullopt;
  record.dst = *dst;
  record.src_port = get_u16(bytes, 44);
  record.dst_port = get_u16(bytes, 46);
  record.packets = get_u32(bytes, 48);
  record.bytes = get_u32(bytes, 52);
  record.tos = bytes[56];
  return record;
}

}  // namespace cbwt::netflow
