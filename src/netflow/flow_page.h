// Fixed-size compressed flow pages: the spill unit of the out-of-core
// NetFlow join (netflow/join.h). One page is a fixed kFlowPageBytes
// block holding a variable number of varint-compressed RawRecords
// behind a small checksummed header, so a page file written through
// store::RecordFileWriter<FlowPageCodec> inherits the store's
// superblock validation and bounded-RSS streaming while packing ~2x
// more records per byte than the 57-byte wire layout.
//
// Parsing is defensive, like the wire codec: a page is bytes read back
// from disk, so any inconsistency — bad magic or version, record count
// or payload length overrunning the page, checksum mismatch, non-zero
// padding after the payload, a record that does not decode — yields
// nullopt instead of garbage structs. encode∘parse is the identity on
// accepted pages (the compression is canonical: one byte sequence per
// record sequence), which is the fixpoint fuzz_flow_page pins.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netflow/record.h"

namespace cbwt::netflow {

/// Bytes per page, the fixed record size of spill files. 4 KiB aligns
/// pages with the mmap substrate's residency unit.
inline constexpr std::size_t kFlowPageBytes = 4096;

/// Page format version carried in every header; bump on layout change.
inline constexpr std::uint8_t kFlowPageVersion = 1;

/// Header layout (big-endian, see flow_page.cpp): magic u16, version
/// u8, reserved u8 (zero), record count u16, payload bytes u16,
/// checksum u32 over the payload.
inline constexpr std::size_t kFlowPageHeaderBytes = 12;

/// One decoded page: a dense run of records. The page boundary carries
/// no meaning beyond "these records were spilled together" — the join
/// concatenates pages back into the partition's record stream.
struct FlowPage {
  std::vector<RawRecord> records;

  friend bool operator==(const FlowPage&, const FlowPage&) = default;
};

/// Exact compressed size of `record` inside a page payload.
[[nodiscard]] std::size_t compressed_record_size(const RawRecord& record) noexcept;

/// Serializes `page` into exactly kFlowPageBytes at `out` (payload
/// zero-padded). Requires the records to fit: header + sum of
/// compressed sizes <= kFlowPageBytes (FlowPageBuilder maintains that).
void encode_flow_page(const FlowPage& page, std::uint8_t* out);

/// Parses one page from exactly kFlowPageBytes. Rejects wrong spans,
/// malformed headers, geometry overruns, checksum mismatches, non-zero
/// padding and undecodable records.
[[nodiscard]] std::optional<FlowPage> parse_flow_page(
    std::span<const std::uint8_t> bytes);

/// Accumulates records into pages, closing a page when the next record
/// would overflow it. Usage: if (!builder.try_add(r)) { flush
/// builder.take(); builder.try_add(r); }. A single record always fits
/// in an empty page (the compressed form is bounded well under 4 KiB).
class FlowPageBuilder {
 public:
  /// Adds `record` if it still fits in the open page.
  [[nodiscard]] bool try_add(const RawRecord& record);

  [[nodiscard]] bool empty() const noexcept { return page_.records.empty(); }
  [[nodiscard]] std::size_t records() const noexcept { return page_.records.size(); }

  /// Hands back the open page and resets the builder.
  [[nodiscard]] FlowPage take() noexcept;

 private:
  FlowPage page_;
  std::size_t payload_bytes_ = 0;
};

/// One wire-ready page image: exactly kFlowPageBytes of encoded page,
/// as store::RecordFileWriter::append_encoded wants it. The parallel
/// spill pass moves vectors of these through ordered_stream's claim
/// window from producing shards to the ordered writer stage.
struct FlowPageImage {
  std::array<std::uint8_t, kFlowPageBytes> bytes;
};

/// The spill pass's allocation-free fast path: encodes records straight
/// into an owned page image as they arrive (flags, varints and
/// addresses are written in place — no RawRecord buffering, no
/// per-record allocation, no second encoding pass at append time), then
/// seal_into() stamps the header + zero padding and hands the finished
/// image off, leaving the builder's buffer immediately reusable for the
/// next page while the sealed one travels to the writer. For any record
/// sequence and page boundaries, the sealed bytes are identical to
/// encode_flow_page over the FlowPageBuilder path — both lower through
/// the same per-record encoder — which test_join_equivalence pins.
class FlowPageImageBuilder {
 public:
  /// Encodes `record` into the open image if it still fits.
  [[nodiscard]] bool try_add(const RawRecord& record);

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t records() const noexcept { return count_; }

  /// Stamps the header (magic, version, count, payload, checksum),
  /// zero-pads the tail, appends the sealed image to `out` and resets
  /// the builder. Requires a non-empty page.
  void seal_into(std::vector<FlowPageImage>& out);

 private:
  FlowPageImage image_{};
  std::size_t count_ = 0;
  std::size_t payload_bytes_ = 0;
};

/// store::RecordCodec adapter: spill files are record files whose fixed
/// "record" is one page. Duck-typed like WireCodec; kKind mirrors
/// store::RecordKind::NetflowPage (pinned by a static_assert in
/// netflow/join.cpp, where the two headers meet).
struct FlowPageCodec {
  using value_type = FlowPage;
  static constexpr std::size_t kRecordSize = kFlowPageBytes;
  static constexpr std::uint16_t kKind = 5;  // store::RecordKind::NetflowPage
  static void encode(const FlowPage& page, std::uint8_t* out) {
    encode_flow_page(page, out);
  }
  static std::optional<FlowPage> decode(const std::uint8_t* in) {
    return parse_flow_page({in, kFlowPageBytes});
  }
};

}  // namespace cbwt::netflow
