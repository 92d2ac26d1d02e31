// Store-backed NetFlow snapshots: the 57-byte wire codec doubles as the
// store's on-disk record format, so a snapshot too large for memory
// streams straight from the generator into a memory-mapped record file,
// which the out-of-core join (netflow/join.h) reads back in bounded
// chunks. The write reuses the deterministic generator
// (generate_snapshot_stream with a writer sink), so store-backed
// results are bit-identical to in-memory ones at any thread count.
#pragma once

#include <cstdint>
#include <string>

#include "dns/resolver.h"
#include "fault/retry.h"
#include "netflow/generator.h"
#include "netflow/profile.h"
#include "netflow/wire.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "store/record_file.h"
#include "world/world.h"

namespace cbwt::netflow {

/// Reader over a store-backed snapshot file written by
/// generate_snapshot_to_store.
using SnapshotReader = store::RecordFileReader<WireCodec>;

/// Generates one ISP-day snapshot directly into the record file at
/// `path`, never holding more than one shard batch in memory. The
/// record sequence equals what generate_snapshot_stream delivers to any
/// other sink, so the in-memory day (collect_snapshot) sees the same
/// records. The closing sync to disk runs in the span
/// "netflow/snapshot_finalize".
[[nodiscard]] SnapshotCounts generate_snapshot_to_store(
    const world::World& world, const dns::Resolver& resolver, const IspProfile& isp,
    const Snapshot& snapshot, const GeneratorConfig& config, std::uint64_t seed,
    runtime::ThreadPool* pool, const std::string& path,
    obs::Registry* registry = nullptr, const fault::FaultPlan* fault_plan = nullptr);

/// Opens the snapshot file at `path` for reading. The open-time check of
/// the payload checksum runs in the span "netflow/snapshot_verify".
[[nodiscard]] SnapshotReader open_snapshot(const std::string& path,
                                           obs::Registry* registry = nullptr);

}  // namespace cbwt::netflow
