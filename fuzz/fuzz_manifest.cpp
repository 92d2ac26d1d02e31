// Fuzz target for the checkpoint-manifest parser (src/store/checkpoint.cpp):
// the text a resume trusts to bind a store directory — a Study's
// manifest.txt and the join's join_manifest.txt — read back from disk.
//
// Checks, beyond "does not crash under ASan/UBSan":
//   - malformed text is rejected with StoreError, never a contract abort
//   - an accepted manifest formats to text that parses to the same
//     entries (format/parse is a fixpoint)
//   - every typed accessor answers on every key without crashing
#include <cstdint>
#include <string_view>

#include "store/checkpoint.h"
#include "store/mapped_file.h"
#include "util/contract.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view text =
      size == 0 ? std::string_view{}
                : std::string_view(reinterpret_cast<const char*>(data), size);
  cbwt::store::Manifest manifest;
  try {
    manifest = cbwt::store::parse_manifest(text);
  } catch (const cbwt::store::StoreError&) {
    return 0;  // rejected: a resume re-runs instead
  }
  const auto reparsed = cbwt::store::parse_manifest(cbwt::store::format_manifest(manifest));
  CBWT_ASSERT(reparsed.entries() == manifest.entries());
  for (const auto& [key, value] : manifest.entries()) {
    CBWT_ASSERT(manifest.get(key).has_value());
    (void)manifest.get_u64(key);
    (void)manifest.get_f64(key);
    CBWT_ASSERT(!manifest.get_all(key).empty());
  }
  return 0;
}
