// Fuzz target for the NetFlow wire codec (src/netflow/wire.cpp): the
// boundary where store-backed snapshot bytes become RawRecord structs.
//
// Accepted records must encode back to the identical bytes (the layout
// has no redundant states).
#include <algorithm>
#include <cstdint>
#include <span>

#include "netflow/wire.h"
#include "util/contract.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);

  if (const auto record = cbwt::netflow::parse_record(bytes)) {
    const auto encoded = cbwt::netflow::encode_record(*record);
    CBWT_ASSERT(encoded.size() == bytes.size());
    CBWT_ASSERT(std::equal(encoded.begin(), encoded.end(), bytes.begin()));
  }
  return 0;
}
