#include "netflow/join.h"

#include <bit>
#include <filesystem>
#include <utility>
#include <vector>

#include "netflow/flow_page.h"
#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "runtime/parallel.h"
#include "store/checkpoint.h"
#include "store/record_file.h"
#include "store/superblock.h"
#include "util/contract.h"
#include "util/prng.h"
#include "util/spare_vectors.h"

namespace cbwt::netflow {

// The duck-typed page codec promises to mirror the store's kind
// registry; this is the translation unit where the two headers meet,
// so it pins the contract (same discipline as snapshot_store.cpp).
static_assert(FlowPageCodec::kKind ==
                  static_cast<std::uint16_t>(store::RecordKind::NetflowPage),
              "FlowPageCodec::kKind must track store::RecordKind::NetflowPage");
static_assert(FlowPageCodec::kRecordSize == kFlowPageBytes);

namespace {

/// Spill pages per streamed chunk in pass 2: 256 pages = 1 MiB of page
/// file per probe step, the store's residency unit. Each step decodes
/// its pages' records (~164 per page, 80 B each) into about 3.4 MB, once
/// per probing worker.
constexpr std::size_t kProbeChunkPages = 256;

/// Manifest schema of the pass-1 spill set.
constexpr std::string_view kManifestKind = "netflow-join-spill";

/// Dense open-addressing membership set over one partition's tracker
/// IPs: power-of-two capacity at most half full, linear probing, empty
/// slots tagged by hash 0 (real hash 0 is remapped). contains() is
/// allocation-free and branch-cheap — the probe loop's only lookup.
class DenseIpSet {
 public:
  explicit DenseIpSet(const std::vector<net::IpAddress>& ips) {
    if (ips.empty()) return;
    std::size_t capacity = 2;
    while (capacity < ips.size() * 2) capacity *= 2;
    slots_.resize(capacity);
    mask_ = capacity - 1;
    for (const auto& ip : ips) insert(ip);
  }

  [[nodiscard]] bool contains(const net::IpAddress& ip) const noexcept {
    if (slots_.empty()) return false;
    const std::uint64_t hash = slot_hash(ip);
    for (std::size_t index = hash & mask_;; index = (index + 1) & mask_) {
      const Slot& slot = slots_[index];
      if (slot.hash == 0) return false;
      if (slot.hash == hash && slot.ip == ip) return true;
    }
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;  ///< 0 = empty
    net::IpAddress ip;
  };

  [[nodiscard]] static std::uint64_t slot_hash(const net::IpAddress& ip) noexcept {
    const std::uint64_t hash = ip.hash();
    return hash == 0 ? 1 : hash;
  }

  void insert(const net::IpAddress& ip) {
    const std::uint64_t hash = slot_hash(ip);
    for (std::size_t index = hash & mask_;; index = (index + 1) & mask_) {
      Slot& slot = slots_[index];
      if (slot.hash == 0) {
        slot.hash = hash;
        slot.ip = ip;
        return;
      }
      if (slot.hash == hash && slot.ip == ip) return;  // duplicate input
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

/// Per-partition spill file path. Plain indices, not zero-padded: the
/// manifest, not a directory sort, is the source of truth.
[[nodiscard]] std::string partition_path(const JoinConfig& config, std::size_t p) {
  return config.spill_directory + "/part_" + std::to_string(p) + ".rec";
}

/// Folds everything the drop set depends on — plan seed, site hash, all
/// four rates — into one value. Two runs whose signatures match drop
/// exactly the same absolute record indices, so a spill set written
/// under one plan is reusable under the other.
[[nodiscard]] std::uint64_t fault_signature(const fault::StageSite& export_site) {
  if (!export_site.live()) return 0;
  const fault::Site& site = export_site.site;
  std::uint64_t sig = util::mix64(export_site.plan->seed ^ 0xFA017901AULL);
  sig = util::mix64(sig ^ site.hash);
  sig = util::mix64(sig ^ std::bit_cast<std::uint64_t>(site.rates.timeout));
  sig = util::mix64(sig ^ std::bit_cast<std::uint64_t>(site.rates.error));
  sig = util::mix64(sig ^ std::bit_cast<std::uint64_t>(site.rates.slow));
  sig = util::mix64(sig ^ std::bit_cast<std::uint64_t>(site.rates.stale));
  return sig;
}

/// Tries to adopt an existing spill set: the manifest must match this
/// input's record count and superblock checksum, the partition fan-out,
/// the page format version, the fault signature *and* the shard-plan
/// geometry (spill_min_shard_records / spill_max_shards — page
/// boundaries fall at shard boundaries, so different geometry means a
/// different byte layout), and every partition file must open clean
/// (superblock + checksum validation). Any mismatch, missing file,
/// missing key (a manifest written before the geometry keys existed) or
/// corruption falls back to re-partitioning — resume is an
/// optimization, never a correctness risk.
[[nodiscard]] bool try_resume(const std::string& manifest_path, const JoinConfig& config,
                              std::uint64_t input_records, std::uint64_t input_checksum,
                              std::uint64_t fault_sig, std::uint64_t& dropped,
                              JoinStats& stats) {
  try {
    const auto manifest = store::read_manifest(manifest_path);
    if (manifest.get("kind") != kManifestKind) return false;
    if (manifest.get_u64("page_version") != std::uint64_t{kFlowPageVersion}) return false;
    if (manifest.get_u64("partitions") != std::uint64_t{config.partitions}) return false;
    if (manifest.get_u64("input_records") != input_records) return false;
    if (manifest.get_u64("input_checksum") != input_checksum) return false;
    if (manifest.get_u64("fault_signature") != fault_sig) return false;
    if (manifest.get_u64("spill_min_shard_records") !=
        std::uint64_t{config.spill_min_shard_records}) {
      return false;
    }
    if (manifest.get_u64("spill_max_shards") != std::uint64_t{config.spill_max_shards}) {
      return false;
    }
    const auto manifest_dropped = manifest.get_u64("dropped_records");
    const auto spill_records = manifest.get_u64("spill_records");
    const auto spill_pages = manifest.get_u64("spill_pages");
    const auto spill_bytes = manifest.get_u64("spill_bytes");
    const auto spill_shards = manifest.get_u64("spill_shards");
    if (!manifest_dropped || !spill_records || !spill_pages || !spill_bytes ||
        !spill_shards) {
      return false;
    }
    std::uint64_t pages = 0;
    for (std::size_t p = 0; p < config.partitions; ++p) {
      pages += store::RecordFileReader<FlowPageCodec>(partition_path(config, p)).size();
    }
    if (pages != *spill_pages) return false;
    dropped = *manifest_dropped;
    stats.spill_records = *spill_records;
    stats.spill_pages = *spill_pages;
    stats.spill_bytes = *spill_bytes;
    stats.spill_shards = *spill_shards;
    stats.resumed = true;
    return true;
  } catch (const store::StoreError&) {
    return false;
  }
}

/// One shard's pass-1 output: per-partition runs of sealed page images
/// plus the shard's record/drop tallies. ~1.6 MiB per 64 Ki-record
/// shard at the default geometry; ordered_stream's claim window keeps at
/// most one per worker, plus the one being written, in flight.
struct SpillRun {
  std::vector<std::vector<FlowPageImage>> pages;  ///< [partition] -> sealed images
  std::uint64_t records = 0;                      ///< records encoded into pages
  std::uint64_t dropped = 0;                      ///< fault-injected export drops
};

/// The shard-plan geometry pass 1 runs under. Pure in (input size,
/// config) — computed identically by the spill pass, the manifest
/// writer and join_flows' stats, and never consulted by the probe.
[[nodiscard]] runtime::ShardOptions spill_shard_options(const JoinConfig& config,
                                                        runtime::ChannelStats* stats) {
  return {.min_shard_items = config.spill_min_shard_records,
          .max_shards = config.spill_max_shards,
          .channel_stats = stats};
}

/// Pass 1, parallel + deterministic: the input index range is sharded
/// by runtime::plan_shards (pure in (n, spill geometry) — rule 1 of
/// parallel.h), each shard decodes its ranged chunks on a pool worker
/// and packs surviving records into per-partition page runs with the
/// in-place FlowPageImageBuilder, and the calling thread appends the
/// sealed runs to the partition writers strictly in shard order through
/// runtime::ordered_stream — writer I/O overlaps producer compute.
/// Page boundaries fall at shard boundaries (each shard seals its open
/// pages at range end), so the spill byte stream is a pure function of
/// the record sequence and the shard plan: byte-identical at any thread
/// count, which is what lets the resume manifest bind to the geometry
/// rather than the execution. Export drops are decided at the absolute
/// record index (ranged chunks keep bases absolute), so the drop set
/// equals the in-memory collector's.
void partition_spill(const SnapshotReader& input,
                     const JoinConfig& config, runtime::ThreadPool* pool,
                     const fault::StageSite& export_site, obs::Registry* registry,
                     runtime::ChannelStats* channel_stats, std::uint64_t& dropped,
                     JoinStats& stats) {
  obs::ScopedSpan span(registry, "netflow/join/partition");

  std::vector<store::RecordFileWriter<FlowPageCodec>> writers;
  writers.reserve(config.partitions);
  for (std::size_t p = 0; p < config.partitions; ++p) {
    writers.emplace_back(partition_path(config, p), registry);
  }

  const auto options = spill_shard_options(config, channel_stats);
  stats.spill_shards = runtime::plan_shards(input.size(), options).size();
  // Decode buffers (one chunk, ~5 MiB at the default chunk size) pass
  // from each finished shard to the next, so the pass allocates one per
  // busy worker rather than one per shard.
  util::SpareVectors<RawRecord> decode_buffers;
  runtime::ordered_stream(
      pool, input.size(), options,
      [&](runtime::ShardRange range, std::size_t shard) {
        obs::ScopedTrace trace(registry, "netflow/join/spill_shard", shard);
        SpillRun run;
        run.pages.resize(config.partitions);
        std::vector<FlowPageImageBuilder> builders(config.partitions);
        std::vector<RawRecord> buffer = decode_buffers.take();
        input.for_each_chunk_range(
            range.begin, range.end, config.chunk_records, buffer,
            [&](std::span<const RawRecord> chunk, std::uint64_t base) {
              for (std::size_t i = 0; i < chunk.size(); ++i) {
                if (export_site.live() &&
                    fault::is_loss(export_site.decide(base + i, /*attempt=*/0))) {
                  ++run.dropped;
                  continue;  // lost between router and collector; never spilled
                }
                const RawRecord& record = chunk[i];
                const std::size_t p = join_partition_of(record.dst, config.partitions);
                if (!builders[p].try_add(record)) {
                  builders[p].seal_into(run.pages[p]);
                  const bool added = builders[p].try_add(record);
                  CBWT_ASSERT(added);  // one record always fits an empty page
                }
                ++run.records;
              }
            });
        decode_buffers.give(std::move(buffer));
        // Seal open pages at the shard boundary: the page layout then
        // depends on the shard plan, not on which thread ran the shard.
        for (std::size_t p = 0; p < config.partitions; ++p) {
          if (!builders[p].empty()) builders[p].seal_into(run.pages[p]);
        }
        return run;
      },
      [&](std::size_t /*shard*/, SpillRun&& run) {
        // Ordered writer stage, calling thread only: appends are raw
        // memcpys of sealed images, so the file contents concatenate
        // the shards' runs in plan order.
        for (std::size_t p = 0; p < config.partitions; ++p) {
          for (const FlowPageImage& image : run.pages[p]) {
            writers[p].append_encoded(image.bytes);
          }
        }
        stats.spill_records += run.records;
        dropped += run.dropped;
      });

  for (std::size_t p = 0; p < config.partitions; ++p) {
    writers[p].finalize();
    stats.spill_pages += writers[p].size();
    stats.spill_bytes += store::kSuperblockSize + writers[p].size() * kFlowPageBytes;
  }
  span.set_items(stats.spill_records);

  store::Manifest manifest;
  manifest.set("kind", std::string(kManifestKind));
  manifest.set_u64("page_version", kFlowPageVersion);
  manifest.set_u64("partitions", config.partitions);
  manifest.set_u64("input_records", input.size());
  manifest.set_u64("input_checksum", input.checksum());
  manifest.set_u64("fault_signature", fault_signature(export_site));
  manifest.set_u64("spill_min_shard_records", config.spill_min_shard_records);
  manifest.set_u64("spill_max_shards", config.spill_max_shards);
  manifest.set_u64("dropped_records", dropped);
  manifest.set_u64("spill_records", stats.spill_records);
  manifest.set_u64("spill_pages", stats.spill_pages);
  manifest.set_u64("spill_bytes", stats.spill_bytes);
  manifest.set_u64("spill_shards", stats.spill_shards);
  store::write_manifest(config.spill_directory + "/join_manifest.txt", manifest);
}

}  // namespace

std::size_t join_partition_of(const net::IpAddress& ip, std::size_t partitions) noexcept {
  return static_cast<std::size_t>(util::mix64(ip.hash()) %
                                  static_cast<std::uint64_t>(partitions));
}

CollectionResult join_flows(const SnapshotReader& input,
                            const TrackerIpIndex& trackers, const IspProfile& isp,
                            const JoinConfig& config, runtime::ThreadPool* pool,
                            obs::Registry* registry, const fault::FaultPlan* fault_plan,
                            JoinStats* stats) {
  CBWT_EXPECTS(config.partitions > 0);
  CBWT_EXPECTS(!config.spill_directory.empty());
  CBWT_EXPECTS(config.chunk_records > 0);
  CBWT_EXPECTS(config.spill_min_shard_records > 0);
  CBWT_EXPECTS(config.spill_max_shards > 0);
  obs::ScopedSpan span(registry, "netflow/join");
  std::filesystem::create_directories(config.spill_directory);
  const auto export_site =
      fault::StageSite::resolve(fault_plan, fault::sites::kNetflowExport, registry);

  std::uint64_t dropped = 0;
  JoinStats run_stats;
  runtime::ChannelStats channel_stats;  // shared by spill + probe streams
  const bool resumed =
      try_resume(config.spill_directory + "/join_manifest.txt", config, input.size(),
                 input.checksum(), fault_signature(export_site), dropped, run_stats);
  if (!resumed) {
    partition_spill(input, config, pool, export_site, registry, &channel_stats, dropped,
                    run_stats);
  }

  // Build side: one dense table per partition over the tracker IPs. The
  // whole set stays resident — it is the small side of the join — so a
  // source-address probe can reach across partitions.
  std::vector<DenseIpSet> tables;
  {
    obs::ScopedSpan build_span(registry, "netflow/join/build");
    std::vector<std::vector<net::IpAddress>> split(config.partitions);
    for (const auto& ip : trackers.ips()) {
      split[join_partition_of(ip, config.partitions)].push_back(ip);
    }
    tables.reserve(config.partitions);
    for (const auto& part : split) tables.emplace_back(part);
    build_span.set_items(trackers.size());
  }

  // Probe: partitions fan out across shards (min_shard_items = 1 so a
  // 16-partition join still parallelizes); per-shard partial results
  // merge in shard order. Every record goes through collect()'s own
  // per-record rule, whose updates are order-free — counter sums and
  // per-IP increments — so the partition-sliced order equals the
  // sequential collect() order bit for bit.
  obs::ScopedSpan probe_span(registry, "netflow/join/probe");
  CollectionResult result;
  runtime::ordered_stream(
      pool, config.partitions, {.min_shard_items = 1, .channel_stats = &channel_stats},
      [&](runtime::ShardRange range, std::size_t shard) {
        obs::ScopedTrace trace(registry, "netflow/join/probe_shard", shard);
        CollectionResult part;
        for (std::size_t p = range.begin; p < range.end; ++p) {
          const store::RecordFileReader<FlowPageCodec> reader(partition_path(config, p),
                                                             registry);
          reader.for_each_chunk(
              kProbeChunkPages,
              [&](std::span<const FlowPage> pages, std::uint64_t /*page_base*/) {
                for (const FlowPage& page : pages) {
                  for (const RawRecord& record : page.records) {
                    // dst routed this record here, so a dst lookup stays
                    // in this partition's table; src may hash anywhere.
                    const auto is_tracker = [&](const net::IpAddress& ip) {
                      const std::size_t q =
                          ip == record.dst ? p : join_partition_of(ip, config.partitions);
                      return tables[q].contains(ip);
                    };
                    collect_record(record, is_tracker, isp, part);
                  }
                }
              });
        }
        return part;
      },
      [&](std::size_t /*shard*/, CollectionResult&& part) {
        merge_collection(result, std::move(part));
      });
  result.dropped_records += dropped;
  CBWT_ENSURES(result.matched_records <= result.internal_records);
  CBWT_ENSURES(result.internal_records <= result.records_seen);
  CBWT_ENSURES(result.records_seen + result.dropped_records == input.size());

  probe_span.set_items(result.records_seen);
  span.set_items(result.records_seen);
  if (registry != nullptr) {
    registry->counter("cbwt_netflow_records_collected_total").add(result.records_seen);
    registry->counter("cbwt_netflow_internal_total").add(result.internal_records);
    registry->counter("cbwt_netflow_matched_total").add(result.matched_records);
    registry->counter("cbwt_netflow_join_partitions_total").add(config.partitions);
    registry->counter("cbwt_netflow_join_spill_bytes_total").add(run_stats.spill_bytes);
    registry->counter("cbwt_netflow_join_spill_records_total")
        .add(run_stats.spill_records);
    registry->counter("cbwt_netflow_join_spill_pages_total").add(run_stats.spill_pages);
    registry->counter("cbwt_netflow_join_spill_shards_total")
        .add(run_stats.spill_shards);
    // Registered even when 0 so fresh and resumed runs export the same
    // counter key set (report diffs compare keys, not just values).
    registry->counter("cbwt_netflow_join_resumed_total").add(resumed ? 1 : 0);
    registry->counter("cbwt_netflow_join_probe_records_total").add(result.records_seen);
    obs::record_channel_stats(registry, channel_stats);
  }
  export_site.metrics.count_injected(result.dropped_records);
  export_site.metrics.count_degraded(result.dropped_records);
  if (stats != nullptr) *stats = run_stats;
  return result;
}

}  // namespace cbwt::netflow
