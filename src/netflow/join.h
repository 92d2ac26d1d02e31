// Out-of-core radix-partitioned hash join of NetFlow records against
// the tracker-IP set — the paper's headline scale-up (>60M users, four
// daily snapshots, Tables 7/8) run at snapshot sizes that no longer
// fit in RAM.
//
// Two passes over the mmap substrate:
//
//   Pass 1 (partition): the input index range is split into shards by
//   runtime::plan_shards — a pure function of (record count, spill
//   geometry), never of the thread count — and each shard streams its
//   records from the snapshot file in bounded chunks on a pool worker,
//   routing every surviving record by destination-IP hash into
//   per-(shard, partition) runs of sealed 4 KiB compressed flow pages
//   (netflow/flow_page.h, FlowPageImageBuilder's in-place encoder).
//   Sealed runs travel through runtime::ordered_stream's claim window
//   to the calling thread, which appends them to the
//   per-partition store::RecordFileWriters strictly in shard order
//   *while later shards are still encoding* — the writer thread's I/O
//   overlaps the workers' decode+pack compute. Page boundaries fall
//   exactly at shard boundaries, so the spill byte stream is a pure
//   function of the record sequence and the shard plan — byte-identical
//   at any thread count. Fault-injected export drops are decided here,
//   while the record's *absolute* input index is known (ranged chunk
//   iteration keeps indices absolute per shard), so the drop set is
//   identical to the in-memory collector's; dropped records are never
//   spilled.
//
//   Pass 2 (build + probe): the tracker side — small by construction —
//   is split into one dense open-addressing table per partition
//   (arena-free, power-of-two capacity, allocation-free probe loop);
//   partitions are then probed in parallel through
//   runtime::ordered_stream, each shard streaming its spill files page
//   by page and passing every record through collect()'s per-record
//   rule (collect_record) into per-partition CollectionResults that
//   merge in shard order. Because every per-record decision is
//   order-free once drops are fixed, the result is bit-identical to the
//   in-memory collect() at any thread count, partition count or chunk
//   size — the equivalence corpus in tests/test_join_equivalence.cpp
//   pins exactly that.
//
// A pass-1 manifest (store::Manifest, join_manifest.txt in the spill
// directory) binds the spill files to the input file's superblock
// checksum *and* the shard-plan geometry that shaped the page layout;
// re-running the join over the same input file reuses the spill set and
// goes straight to pass 2 (resume-mid-join). A manifest written under
// different geometry — or by a pre-geometry build — silently falls back
// to re-partitioning.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "fault/retry.h"
#include "netflow/collector.h"
#include "netflow/profile.h"
#include "netflow/snapshot_store.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "store/record_file.h"

namespace cbwt::netflow {

/// Tuning knobs of one join run. The defaults are the production shape;
/// every knob is swept by the equivalence corpus because none of them
/// may change the result.
struct JoinConfig {
  /// Directory for per-partition spill files and the pass-1 manifest.
  /// Created if absent; files are overwritten per run (no cleanup).
  std::string spill_directory;
  /// Radix fan-out of pass 1. More partitions = smaller per-partition
  /// probe working sets; 16 at the default chunk size keeps each
  /// partition's build table inside L2 at paper scale.
  std::size_t partitions = 16;
  /// Input records per streamed chunk in pass 1.
  std::size_t chunk_records = store::kDefaultChunkRecords;
  /// Floor on input records per pass-1 spill shard. Together with
  /// spill_max_shards this fixes the shard plan — and therefore the
  /// page layout — as a pure function of the input size: page
  /// boundaries fall at shard boundaries, so changing either knob
  /// changes the spill bytes (and invalidates resume), while changing
  /// the thread count never does. 64 Ki records ≈ 3.6 MiB of wire
  /// input per shard, enough to amortize scheduling.
  std::size_t spill_min_shard_records = 64 * 1024;
  /// Cap on pass-1 spill shards. With the input size it sets how large
  /// a sealed run is; ordered_stream's claim window holds at most one
  /// run per worker, plus the one being written.
  std::size_t spill_max_shards = 256;
};

/// What one join run did, beyond the CollectionResult.
struct JoinStats {
  std::uint64_t spill_bytes = 0;    ///< finalized spill file bytes, all partitions
  std::uint64_t spill_records = 0;  ///< records written to spill pages
  std::uint64_t spill_pages = 0;    ///< 4 KiB pages across all partitions
  std::uint64_t spill_shards = 0;   ///< pass-1 shard-plan size (thread-independent)
  bool resumed = false;             ///< pass 1 skipped via a matching manifest
};

/// The radix route: which partition `ip` hashes to. Exposed so tests
/// can build adversarial inputs (duplicate destination IPs across
/// partitions, single-partition pile-ups) without guessing the mix.
[[nodiscard]] std::size_t join_partition_of(const net::IpAddress& ip,
                                            std::size_t partitions) noexcept;

/// Runs the streaming join over the snapshot file `input`. Returns
/// exactly what collect() over the same records returns — counters,
/// per-IP map, drop set — for any thread count and any JoinConfig. `registry` (optional) records the
/// "netflow/join" span, the collect-parity counters, the
/// cbwt_netflow_join_{partitions,spill_bytes,spill_records,spill_pages,
/// spill_shards,resumed,probe_records}_total counters, the
/// cbwt_netflow_join_{spill,probe}_seconds phase histograms and
/// per-shard ScopedTrace events; `fault_plan` (optional) applies
/// netflow_export drops by absolute record index; `stats` (optional)
/// receives the spill volume breakdown.
[[nodiscard]] CollectionResult join_flows(const SnapshotReader& input,
                                          const TrackerIpIndex& trackers,
                                          const IspProfile& isp, const JoinConfig& config,
                                          runtime::ThreadPool* pool,
                                          obs::Registry* registry = nullptr,
                                          const fault::FaultPlan* fault_plan = nullptr,
                                          JoinStats* stats = nullptr);

}  // namespace cbwt::netflow
