// Fuzz target for the store superblock parser and the record-stream
// validation path (src/store): the boundary where untrusted bytes on
// disk become a typed dataset. The harness treats the input as a whole
// store-file image: a 64-byte superblock followed by payload.
//
// Accepted superblocks must re-encode to the identical 64 bytes (the
// header has no redundant states), and a geometry- and checksum-valid
// NetflowWire image must decode every record without crashing.
#include <algorithm>
#include <cstdint>
#include <span>

#include "netflow/wire.h"
#include "store/superblock.h"
#include "util/contract.h"
#include "util/fnv1a.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);

  const auto block = cbwt::store::parse_superblock(bytes);
  if (!block) return 0;

  // Parse -> encode fixpoint on the 64-byte header.
  std::uint8_t reencoded[cbwt::store::kSuperblockSize];
  cbwt::store::encode_superblock(*block, {reencoded, sizeof reencoded});
  CBWT_ASSERT(std::equal(reencoded, reencoded + sizeof reencoded, bytes.begin()));

  // A reader would now validate geometry and checksum; replay exactly
  // those checks, then decode whatever survives them.
  const auto payload = bytes.subspan(cbwt::store::kSuperblockSize);
  if (payload.size() != block->payload_bytes) return 0;
  if (cbwt::util::fnv1a(payload) != block->checksum) return 0;

  if (block->kind == cbwt::store::RecordKind::NetflowWire &&
      block->record_size == cbwt::netflow::kWireRecordSize) {
    for (std::uint64_t i = 0; i < block->record_count; ++i) {
      const auto record = cbwt::netflow::parse_record(
          payload.subspan(i * cbwt::netflow::kWireRecordSize,
                          cbwt::netflow::kWireRecordSize));
      if (!record) continue;  // checksum-valid bytes may still be foreign
      const auto encoded = cbwt::netflow::encode_record(*record);
      CBWT_ASSERT(encoded.size() == cbwt::netflow::kWireRecordSize);
      CBWT_ASSERT(std::equal(encoded.begin(), encoded.end(),
                             payload.begin() + i * cbwt::netflow::kWireRecordSize));
    }
  }
  return 0;
}
