#include "browser/dataset_store.h"

#include <limits>
#include <span>

#include "store/bytes.h"
#include "store/record_file.h"
#include "store/superblock.h"
#include "util/contract.h"

namespace cbwt::browser {

static_assert(RequestRowCodec::kKind ==
                  static_cast<std::uint16_t>(store::RecordKind::BrowseRecord),
              "RequestRowCodec::kKind must track store::RecordKind::BrowseRecord");

void RequestRowCodec::encode(const RequestRow& row, std::uint8_t* out) {
  store::put_u32(out + 0, row.user);
  store::put_u32(out + 4, row.publisher);
  store::put_u32(out + 8, row.domain);
  out[12] = row.server_ip.is_v4() ? 4 : 6;
  store::put_u64(out + 13, row.server_ip.hi());
  store::put_u64(out + 21, row.server_ip.lo());
  store::put_u32(out + 29, static_cast<std::uint32_t>(row.day));
  out[33] = row.chain_depth;
  out[34] = static_cast<std::uint8_t>((row.https ? 1 : 0) |
                                      (row.interaction_triggered ? 2 : 0));
  store::put_blob_ref(out + 35, row.url);
  store::put_blob_ref(out + 47, row.referrer);
}

std::optional<RequestRow> RequestRowCodec::decode(const std::uint8_t* in) {
  RequestRow row;
  row.user = store::get_u32(in + 0);
  row.publisher = store::get_u32(in + 4);
  row.domain = store::get_u32(in + 8);
  const std::uint8_t family = in[12];
  const std::uint64_t hi = store::get_u64(in + 13);
  const std::uint64_t lo = store::get_u64(in + 21);
  if (family == 4) {
    if (hi != 0 || lo > 0xFFFFFFFFULL) return std::nullopt;
    row.server_ip = net::IpAddress::v4(static_cast<std::uint32_t>(lo));
  } else if (family == 6) {
    row.server_ip = net::IpAddress::v6(hi, lo);
  } else {
    return std::nullopt;
  }
  row.day = static_cast<pdns::Day>(store::get_u32(in + 29));
  row.chain_depth = in[33];
  const std::uint8_t flags = in[34];
  if ((flags & ~std::uint8_t{3}) != 0) return std::nullopt;  // reserved bits
  row.https = (flags & 1) != 0;
  row.interaction_triggered = (flags & 2) != 0;
  row.url = store::get_blob_ref(in + 35);
  row.referrer = store::get_blob_ref(in + 47);
  return row;
}

void save_requests(const ExtensionDataset& dataset, const std::string& records_path,
                   const std::string& blobs_path) {
  store::BlobFileWriter blobs(blobs_path);
  const util::Arena* text = dataset.text.get();
  if (text != nullptr) {
    text->for_each_run([&](std::string_view run) { (void)blobs.append(run); });
  }
  const auto ref = [&](std::string_view view) -> store::BlobRef {
    if (view.empty()) return {};
    CBWT_EXPECTS(view.size() <= std::numeric_limits<std::uint32_t>::max());
    const auto offset = text != nullptr ? text->offset_of(view) : std::nullopt;
    return {offset ? *offset : blobs.append(view), static_cast<std::uint32_t>(view.size())};
  };
  store::RecordFileWriter<RequestRowCodec> rows(records_path);
  for (const ThirdPartyRequest& request : dataset.requests) {
    RequestRow row;
    row.url = ref(request.url);
    row.referrer = ref(request.referrer);
    row.user = request.user;
    row.publisher = request.publisher;
    row.domain = request.domain;
    row.server_ip = request.server_ip;
    row.day = request.day;
    row.chain_depth = request.chain_depth;
    row.https = request.https;
    row.interaction_triggered = request.interaction_triggered;
    rows.append(row);
  }
  rows.finalize();
  blobs.finalize();
}

ExtensionDataset load_requests(const std::string& records_path,
                               const std::string& blobs_path) {
  const store::BlobFileReader blobs(blobs_path);
  const store::RecordFileReader<RequestRowCodec> rows(records_path);
  ExtensionDataset dataset;
  dataset.requests.reserve(rows.size());
  const std::string_view mapped = blobs.payload();
  const char* const kept = dataset.add_text(mapped).data();
  // blobs.view checks the ref against the payload; the request keeps the
  // same slice of the copy.
  const auto text = [&](const store::BlobRef& ref) {
    const std::string_view view = blobs.view(ref);
    return view.empty() ? view
                        : std::string_view(kept + (view.data() - mapped.data()), view.size());
  };
  rows.for_each_chunk(store::kDefaultChunkRecords,
                      [&](std::span<const RequestRow> chunk, std::uint64_t /*base*/) {
                        for (const RequestRow& row : chunk) {
                          ThirdPartyRequest request;
                          request.user = row.user;
                          request.publisher = row.publisher;
                          request.domain = row.domain;
                          request.url = text(row.url);
                          request.referrer = text(row.referrer);
                          request.server_ip = row.server_ip;
                          request.day = row.day;
                          request.chain_depth = row.chain_depth;
                          request.https = row.https;
                          request.interaction_triggered = row.interaction_triggered;
                          dataset.requests.push_back(request);
                        }
                      });
  return dataset;
}

}  // namespace cbwt::browser
