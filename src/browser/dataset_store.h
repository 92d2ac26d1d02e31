// Extension-dataset checkpointing: the logged third-party requests as a
// fixed-width record file (ids, IP, day, flags) plus a blob file whose
// payload is the dataset's text buffer as it is, each URL once (see
// ExtensionDataset), so a row's url and referrer BlobRefs are their
// views' offsets into that buffer. Loading restores the requests in
// logged order over one copy of the payload. The two dataset-level
// aggregates (first-party visits, distinct publishers) travel in the
// checkpoint manifest, which owns all scalar state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "browser/extension.h"
#include "store/blob_file.h"

namespace cbwt::browser {

/// One serialized ThirdPartyRequest with its strings swapped for blob
/// handles; the fixed-width row the record file actually holds.
struct RequestRow {
  store::BlobRef url;
  store::BlobRef referrer;
  world::UserId user = 0;
  world::PublisherId publisher = 0;
  world::DomainId domain = 0;
  net::IpAddress server_ip;
  pdns::Day day = 0;
  std::uint8_t chain_depth = 0;
  bool https = true;
  bool interaction_triggered = false;
};

/// store::RecordCodec for RequestRow. 59-byte layout, big-endian:
/// user u32, publisher u32, domain u32, ip family u8 + hi u64 + lo u64,
/// day u32, chain_depth u8, flags u8 (bit 0 https, bit 1
/// interaction_triggered), url BlobRef, referrer BlobRef.
struct RequestRowCodec {
  using value_type = RequestRow;
  static constexpr std::size_t kRecordSize = 59;
  static constexpr std::uint16_t kKind = 3;  // store::RecordKind::BrowseRecord
  static void encode(const RequestRow& row, std::uint8_t* out);
  static std::optional<RequestRow> decode(const std::uint8_t* in);
};

/// Persists `dataset.requests` to `records_path` + `blobs_path` (the
/// scalar aggregates are the caller's to persist — see the checkpoint
/// manifest). The blob payload is `dataset.text`'s bytes in append
/// order, one blob per buffer chunk, with no lookup or hashing per
/// string; a view from outside that buffer is appended after it.
void save_requests(const ExtensionDataset& dataset, const std::string& records_path,
                   const std::string& blobs_path);

/// Restores the requests saved by save_requests, in logged order, with
/// `text` holding one copy of the blob payload that every url and
/// referrer views; the aggregates are left zero. Any blob file whose
/// refs lie inside its payload loads, interned ones included. Throws
/// store::StoreError on validation failure, a ref past the payload
/// included.
[[nodiscard]] ExtensionDataset load_requests(const std::string& records_path,
                                             const std::string& blobs_path);

}  // namespace cbwt::browser
