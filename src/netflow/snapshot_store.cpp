#include "netflow/snapshot_store.h"

#include "obs/trace.h"
#include "store/superblock.h"
#include "util/contract.h"

namespace cbwt::netflow {

// The duck-typed codec promises to mirror the store's kind registry;
// this is the one translation unit that sees both headers, so it pins
// the contract.
static_assert(WireCodec::kKind ==
                  static_cast<std::uint16_t>(store::RecordKind::NetflowWire),
              "WireCodec::kKind must track store::RecordKind::NetflowWire");
static_assert(WireCodec::kRecordSize == kWireRecordSize);

SnapshotCounts generate_snapshot_to_store(
    const world::World& world, const dns::Resolver& resolver, const IspProfile& isp,
    const Snapshot& snapshot, const GeneratorConfig& config, std::uint64_t seed,
    runtime::ThreadPool* pool, const std::string& path, obs::Registry* registry,
    const fault::FaultPlan* fault_plan) {
  store::RecordFileWriter<WireCodec> writer(path, registry);
  const auto counts = generate_snapshot_stream(
      world, resolver, isp, snapshot, config, seed, pool,
      [&writer](std::span<const RawRecord> batch) { writer.append(batch); },
      registry, fault_plan);
  {
    // Stamping the superblock syncs the whole file to disk.
    obs::ScopedSpan span(registry, "netflow/snapshot_finalize");
    writer.finalize();
    span.set_items(writer.size());
  }
  CBWT_ENSURES(writer.size() == counts.records);
  return counts;
}

SnapshotReader open_snapshot(const std::string& path, obs::Registry* registry) {
  obs::ScopedSpan span(registry, "netflow/snapshot_verify");
  SnapshotReader reader(path, registry);  // hashes the whole payload
  span.set_items(reader.size());
  return reader;
}

}  // namespace cbwt::netflow
