// Differential join-equivalence suite: the out-of-core radix join
// (netflow/join.h) must produce the in-memory collector's
// CollectionResult bit for bit — same counters, same per-IP map, same
// fault-drop set — across a seeded property corpus (snapshot scales ×
// tracker-set sizes × partition counts × chunk sizes), hand-built edge
// cases, fault injection,
// resume-mid-join, and a threads-1/2/8 determinism sweep with obs
// counter equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "net/ip.h"
#include "netflow/collector.h"
#include "netflow/flow_page.h"
#include "netflow/join.h"
#include "netflow/profile.h"
#include "netflow/snapshot_store.h"
#include "netflow/wire.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "store/checkpoint.h"
#include "store/record_file.h"
#include "util/prng.h"

namespace cbwt {
namespace {

// Sanitizer builds pay ~10x per record through the spill/probe loops;
// shrink the corpus scales but keep every structural dimension.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::size_t kCorpusScales[] = {500, 4'000};
#else
constexpr std::size_t kCorpusScales[] = {1'000, 10'000, 60'000};
#endif

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/cbwt_join_" + name;
}

std::string temp_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<char> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Deterministic, distinct tracker IPs (v4 with a v6 tail, like the
/// paper's mix). Distinctness comes from the index, not the RNG.
std::vector<net::IpAddress> make_tracker_pool(std::size_t count) {
  std::vector<net::IpAddress> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 7 == 6) {
      pool.push_back(net::IpAddress::v6(0x20010DB8u, 0xAD0000u + i));
    } else {
      pool.push_back(net::IpAddress::v4(0x50000000u + static_cast<std::uint32_t>(i) * 7));
    }
  }
  return pool;
}

netflow::TrackerIpIndex make_index(std::span<const net::IpAddress> pool) {
  netflow::TrackerIpIndex index;
  for (const auto& ip : pool) index.add(ip);
  return index;
}

/// Seeded synthetic snapshot: ~80% internal records, ~40% of remotes
/// drawn from the tracker pool (so matches are plentiful), occasional
/// inbound flows with the tracker on the src side, v4/v6 and TCP/UDP
/// mixes, a healthy share of port 443.
std::vector<netflow::RawRecord> make_records(std::uint64_t seed, std::size_t count,
                                             std::span<const net::IpAddress> pool) {
  util::Rng rng(seed);
  std::vector<netflow::RawRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    netflow::RawRecord record;
    record.timestamp_s = static_cast<std::uint32_t>(rng.next_below(86'400));
    record.router = static_cast<std::uint16_t>(rng.next_below(48));
    record.interface = static_cast<std::uint16_t>(rng.next_below(8));
    record.internal_interface = rng.chance(0.8);
    record.protocol = rng.chance(0.3) ? 17 : 6;
    record.src = net::IpAddress::v4(0x0A000000u +
                                    static_cast<std::uint32_t>(rng.next_below(1u << 16)));
    if (!pool.empty() && rng.chance(0.4)) {
      record.dst = pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
    } else if (rng.chance(0.1)) {
      record.dst = net::IpAddress::v6(
          0x20010DB8u, static_cast<std::uint32_t>(rng.next_below(1u << 20)));
    } else {
      record.dst = net::IpAddress::v4(
          0xC0000000u + static_cast<std::uint32_t>(rng.next_below(1u << 20)));
    }
    record.src_port = static_cast<std::uint16_t>(32'768 + rng.next_below(16'384));
    record.dst_port = rng.chance(0.5) ? 443
                                      : static_cast<std::uint16_t>(rng.next_below(1'024));
    if (rng.chance(0.05)) {
      // Inbound-style flow: the tracker (if any) sits on the src side,
      // which exercises the join's cross-partition src probe.
      std::swap(record.src, record.dst);
      std::swap(record.src_port, record.dst_port);
    }
    record.packets = 1 + static_cast<std::uint32_t>(rng.next_below(1'000));
    record.bytes = 60 + static_cast<std::uint32_t>(rng.next_below(1u << 20));
    record.tos = static_cast<std::uint8_t>(rng.next_below(256));
    records.push_back(record);
  }
  return records;
}

void expect_same_collection(const netflow::CollectionResult& got,
                            const netflow::CollectionResult& ref) {
  EXPECT_EQ(got.records_seen, ref.records_seen);
  EXPECT_EQ(got.internal_records, ref.internal_records);
  EXPECT_EQ(got.matched_records, ref.matched_records);
  EXPECT_EQ(got.https_records, ref.https_records);
  EXPECT_EQ(got.udp_records, ref.udp_records);
  EXPECT_EQ(got.dropped_records, ref.dropped_records);
  EXPECT_EQ(got.per_ip, ref.per_ip);
}

/// Writes `records` into a wire-codec record file and opens it as the
/// join's input.
netflow::SnapshotReader store_source(std::span<const netflow::RawRecord> records,
                                     const std::string& path) {
  {
    store::RecordFileWriter<netflow::WireCodec> writer(path);
    writer.append(records);
    writer.finalize();
  }
  return netflow::SnapshotReader(path);
}

const netflow::IspProfile& test_isp() { return netflow::default_isps()[0]; }

/// Writes `records` to a record file, joins it and asserts equivalence
/// to the serial in-memory collect() — the definition of the result.
void expect_join_matches(std::span<const netflow::RawRecord> records,
                         const netflow::TrackerIpIndex& index,
                         netflow::JoinConfig config, runtime::ThreadPool* pool,
                         const std::string& tag,
                         const fault::FaultPlan* plan = nullptr) {
  SCOPED_TRACE(tag);
  const auto ref = netflow::collect(
      records, index, test_isp(),
      fault::StageSite::resolve(plan, fault::sites::kNetflowExport, nullptr));
  config.spill_directory = temp_dir(tag + "_spill");
  netflow::JoinStats stats;
  const auto source = store_source(records, temp_path(tag + ".rec"));
  const auto got = netflow::join_flows(source, index, test_isp(), config, pool,
                                       /*registry=*/nullptr, plan, &stats);
  expect_same_collection(got, ref);
  EXPECT_FALSE(stats.resumed);
  EXPECT_EQ(stats.spill_records + got.dropped_records, records.size());
  // Spill volume is exactly the finalized page files.
  EXPECT_EQ(stats.spill_bytes, config.partitions * store::kSuperblockSize +
                                   stats.spill_pages * netflow::kFlowPageBytes);
}

// --- property corpus --------------------------------------------------

TEST(JoinEquivalence, PropertyCorpus) {
  runtime::ThreadPool pool(4);
  const std::size_t tracker_sizes[] = {0, 1, 64, 1'024};
  const std::size_t partition_counts[] = {1, 3, 16};
  const std::size_t chunk_sizes[] = {7, 4'096};
  std::uint64_t seed = 0x90114C0905ULL;
  std::size_t case_index = 0;
  for (const std::size_t scale : kCorpusScales) {
    for (const std::size_t tracker_size : tracker_sizes) {
      const auto pool_ips = make_tracker_pool(tracker_size);
      const auto index = make_index(pool_ips);
      const auto records = make_records(seed++, scale, pool_ips);
      // Sweep partitions × chunks on a rotating schedule so the corpus
      // covers the grid without quadratic runtime.
      const std::size_t partitions = partition_counts[case_index % 3];
      const std::size_t chunk = chunk_sizes[case_index % 2];
      netflow::JoinConfig config;
      config.partitions = partitions;
      config.chunk_records = chunk;
      expect_join_matches(records, index, config, &pool,
                          "corpus_" + std::to_string(case_index));
      ++case_index;
    }
  }
}

// --- hand-built edge cases --------------------------------------------

TEST(JoinEquivalence, EmptySnapshot) {
  runtime::ThreadPool pool(2);
  const auto pool_ips = make_tracker_pool(16);
  expect_join_matches({}, make_index(pool_ips), {}, &pool, "empty");
}

TEST(JoinEquivalence, ZeroTrackerIps) {
  runtime::ThreadPool pool(2);
  const auto records = make_records(0xA11CE, 2'000, {});
  expect_join_matches(records, netflow::TrackerIpIndex{}, {}, &pool,
                      "no_trackers");
}

TEST(JoinEquivalence, AllRecordsMatch) {
  runtime::ThreadPool pool(2);
  const auto pool_ips = make_tracker_pool(8);
  const auto index = make_index(pool_ips);
  std::vector<netflow::RawRecord> records;
  for (std::uint32_t i = 0; i < 1'000; ++i) {
    netflow::RawRecord record;
    record.internal_interface = true;
    record.src = net::IpAddress::v4(0x0A000000u + i);
    record.dst = pool_ips[i % pool_ips.size()];
    record.dst_port = (i % 2) != 0 ? 443 : 80;
    record.protocol = (i % 3) != 0 ? 6 : 17;
    records.push_back(record);
  }
  expect_join_matches(records, index, {}, &pool, "all_match");
}

TEST(JoinEquivalence, OnePartition) {
  runtime::ThreadPool pool(2);
  const auto pool_ips = make_tracker_pool(64);
  const auto records = make_records(0x0E7, 3'000, pool_ips);
  netflow::JoinConfig config;
  config.partitions = 1;
  expect_join_matches(records, make_index(pool_ips), config, &pool,
                      "one_partition");
}

TEST(JoinEquivalence, RecordsStraddleChunkBoundaries) {
  runtime::ThreadPool pool(2);
  const auto pool_ips = make_tracker_pool(32);
  const auto records = make_records(0x57A, 1'001, pool_ips);
  // A prime chunk size guarantees the last chunk is partial and most
  // chunks end mid-page; results must not move.
  netflow::JoinConfig config;
  config.chunk_records = 13;
  config.partitions = 5;
  expect_join_matches(records, make_index(pool_ips), config, &pool,
                      "straddle");
}

TEST(JoinEquivalence, DuplicateDestinationsAcrossPartitions) {
  runtime::ThreadPool pool(2);
  // Two tracker IPs that land in different partitions at fan-out 4,
  // each hit many times, plus flows where the tracker is the *source*
  // (probing a partition the record was not routed to).
  const auto pool_ips = make_tracker_pool(2);
  ASSERT_NE(netflow::join_partition_of(pool_ips[0], 4),
            netflow::join_partition_of(pool_ips[1], 4));
  const auto index = make_index(pool_ips);
  std::vector<netflow::RawRecord> records;
  for (std::uint32_t i = 0; i < 2'000; ++i) {
    netflow::RawRecord record;
    record.internal_interface = (i % 5) != 0;
    record.src = net::IpAddress::v4(0x0A000000u + (i % 37));
    record.dst = pool_ips[i % 2];
    record.dst_port = 443;
    if (i % 4 == 3) {
      std::swap(record.src, record.dst);  // tracker on the src side
      record.src_port = 443;
      record.dst_port = 53'000;
    }
    records.push_back(record);
  }
  netflow::JoinConfig config;
  config.partitions = 4;
  expect_join_matches(records, index, config, &pool, "dup_dst");
}

// --- fault equivalence ------------------------------------------------

TEST(JoinEquivalence, FaultDropsMatchInMemoryCollector) {
  runtime::ThreadPool pool(4);
  fault::FaultPlan plan;
  plan.seed = 0xFA11;
  plan.site_rates[std::string(fault::sites::kNetflowExport)] = {
      .timeout = 0.05, .error = 0.03, .slow = 0.02, .stale = 0.01};
  const auto pool_ips = make_tracker_pool(128);
  const auto records = make_records(0xD20F5, 8'000, pool_ips);
  const auto index = make_index(pool_ips);
  netflow::JoinConfig config;
  config.partitions = 8;
  config.chunk_records = 501;
  expect_join_matches(records, index, config, &pool, "fault", &plan);
}

// --- resume-mid-join --------------------------------------------------

TEST(JoinResume, SecondRunReusesSpillsAndMatches) {
  runtime::ThreadPool pool(4);
  const auto pool_ips = make_tracker_pool(64);
  const auto records = make_records(0x2E50, 6'000, pool_ips);
  const auto index = make_index(pool_ips);
  const auto source = store_source(records, temp_path("resume.rec"));
  netflow::JoinConfig config;
  config.spill_directory = temp_dir("resume_spill");
  config.partitions = 8;

  netflow::JoinStats first_stats;
  const auto first = netflow::join_flows(source, index, test_isp(), config, &pool,
                                         nullptr, nullptr, &first_stats);
  EXPECT_FALSE(first_stats.resumed);
  EXPECT_GT(first_stats.spill_pages, 0u);

  // Second run over the same input adopts the manifest: pass 1 skipped,
  // same spill accounting, bit-identical result — even at a different
  // thread count.
  netflow::JoinStats second_stats;
  const auto second = netflow::join_flows(source, index, test_isp(), config,
                                          /*pool=*/nullptr, nullptr, nullptr,
                                          &second_stats);
  EXPECT_TRUE(second_stats.resumed);
  EXPECT_EQ(second_stats.spill_bytes, first_stats.spill_bytes);
  EXPECT_EQ(second_stats.spill_pages, first_stats.spill_pages);
  EXPECT_EQ(second_stats.spill_records, first_stats.spill_records);
  EXPECT_EQ(second_stats.spill_shards, first_stats.spill_shards);
  expect_same_collection(second, first);
}

TEST(JoinResume, MismatchedManifestRepartitions) {
  runtime::ThreadPool pool(2);
  const auto pool_ips = make_tracker_pool(32);
  const auto records = make_records(0xBAD, 2'000, pool_ips);
  const auto index = make_index(pool_ips);
  const auto source = store_source(records, temp_path("resume_bad.rec"));
  netflow::JoinConfig config;
  config.spill_directory = temp_dir("resume_bad_spill");

  netflow::JoinStats stats;
  const auto first =
      netflow::join_flows(source, index, test_isp(), config, &pool, nullptr,
                          nullptr, &stats);
  ASSERT_FALSE(stats.resumed);

  // A different partition fan-out invalidates the manifest.
  auto other = config;
  other.partitions = config.partitions * 2;
  const auto repartitioned = netflow::join_flows(source, index, test_isp(), other,
                                                 &pool, nullptr, nullptr, &stats);
  EXPECT_FALSE(stats.resumed);
  expect_same_collection(repartitioned, first);

  // A corrupted spill file is rejected by its checksum and re-spilled.
  {
    const std::string victim = config.spill_directory + "/part_0.rec";
    std::fstream file(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(-1, std::ios::end);
    file.put('\xFF');
  }
  const auto recovered = netflow::join_flows(source, index, test_isp(), config,
                                             &pool, nullptr, nullptr, &stats);
  EXPECT_FALSE(stats.resumed);
  expect_same_collection(recovered, first);

  // ...after which the repaired spill set resumes again.
  const auto resumed = netflow::join_flows(source, index, test_isp(), config, &pool,
                                           nullptr, nullptr, &stats);
  EXPECT_TRUE(stats.resumed);
  expect_same_collection(resumed, first);
}

TEST(JoinResume, GeometryChangeRepartitions) {
  runtime::ThreadPool pool(2);
  const auto pool_ips = make_tracker_pool(32);
  const auto records = make_records(0x6E0, 5'000, pool_ips);
  const auto index = make_index(pool_ips);
  const auto source = store_source(records, temp_path("resume_geom.rec"));
  netflow::JoinConfig config;
  config.spill_directory = temp_dir("resume_geom_spill");
  config.spill_min_shard_records = 1'000;
  config.spill_max_shards = 4;

  netflow::JoinStats stats;
  const auto first = netflow::join_flows(source, index, test_isp(), config, &pool,
                                         nullptr, nullptr, &stats);
  ASSERT_FALSE(stats.resumed);
  ASSERT_GT(stats.spill_shards, 1u);

  // Shard geometry shapes the page layout, so a geometry change must
  // invalidate the manifest and silently re-partition — both knobs.
  auto finer = config;
  finer.spill_min_shard_records = 500;
  const auto repartitioned = netflow::join_flows(source, index, test_isp(), finer,
                                                 &pool, nullptr, nullptr, &stats);
  EXPECT_FALSE(stats.resumed);
  expect_same_collection(repartitioned, first);

  auto capped = finer;
  capped.spill_max_shards = 2;
  const auto recapped = netflow::join_flows(source, index, test_isp(), capped, &pool,
                                            nullptr, nullptr, &stats);
  EXPECT_FALSE(stats.resumed);
  expect_same_collection(recapped, first);

  // Unchanged geometry resumes off the freshly rewritten spill set.
  const auto resumed = netflow::join_flows(source, index, test_isp(), capped, &pool,
                                           nullptr, nullptr, &stats);
  EXPECT_TRUE(stats.resumed);
  expect_same_collection(resumed, first);
}

TEST(JoinResume, PreGeometryManifestRepartitions) {
  runtime::ThreadPool pool(2);
  const auto pool_ips = make_tracker_pool(32);
  const auto records = make_records(0x01D, 3'000, pool_ips);
  const auto index = make_index(pool_ips);
  const auto source = store_source(records, temp_path("resume_old.rec"));
  netflow::JoinConfig config;
  config.spill_directory = temp_dir("resume_old_spill");

  netflow::JoinStats stats;
  const auto first = netflow::join_flows(source, index, test_isp(), config, &pool,
                                         nullptr, nullptr, &stats);
  ASSERT_FALSE(stats.resumed);

  // Strip the shard-geometry keys, reconstructing a manifest written by
  // a build that predates them. Resume must fall back to
  // re-partitioning (missing key, not a crash), then heal the manifest.
  const std::string manifest_path = config.spill_directory + "/join_manifest.txt";
  const auto manifest = store::read_manifest(manifest_path);
  store::Manifest stripped;
  for (const auto& [key, value] : manifest.entries()) {
    if (key == "spill_min_shard_records" || key == "spill_max_shards" ||
        key == "spill_shards") {
      continue;
    }
    stripped.set(key, value);
  }
  store::write_manifest(manifest_path, stripped);

  const auto repartitioned = netflow::join_flows(source, index, test_isp(), config,
                                                 &pool, nullptr, nullptr, &stats);
  EXPECT_FALSE(stats.resumed);
  expect_same_collection(repartitioned, first);

  const auto resumed = netflow::join_flows(source, index, test_isp(), config, &pool,
                                           nullptr, nullptr, &stats);
  EXPECT_TRUE(stats.resumed);
  expect_same_collection(resumed, first);
}

// --- spill-set byte identity (threads 1/2/8) --------------------------

/// The tentpole invariant of the parallel spill pass: the on-disk spill
/// set — every partition file byte for byte, superblock checksum
/// included, plus the resume manifest — is identical at any thread
/// count, because page boundaries fall at shard-plan boundaries and the
/// plan is a pure function of (input size, spill geometry).
TEST(JoinSpillDeterminism, SpillSetByteIdenticalAcrossThreadCounts) {
  const auto pool_ips = make_tracker_pool(128);
  const auto records = make_records(0x5B111, 20'000, pool_ips);
  const auto index = make_index(pool_ips);
  const auto source = store_source(records, temp_path("spill_ident.rec"));
  netflow::JoinConfig base;
  base.partitions = 8;
  base.spill_min_shard_records = 1'000;  // many shards even at test scale
  base.spill_max_shards = 16;

  std::vector<std::vector<char>> reference_files;
  std::vector<char> reference_manifest;
  netflow::CollectionResult reference;
  bool have_reference = false;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    runtime::ThreadPool pool(threads);
    auto config = base;
    config.spill_directory = temp_dir("spill_ident_t" + std::to_string(threads));
    netflow::JoinStats stats;
    const auto result = netflow::join_flows(source, index, test_isp(), config, &pool,
                                            nullptr, nullptr, &stats);
    EXPECT_FALSE(stats.resumed);
    EXPECT_GT(stats.spill_shards, 1u);  // the sweep must exercise merging

    std::vector<std::vector<char>> files;
    for (std::size_t p = 0; p < config.partitions; ++p) {
      files.push_back(read_file_bytes(config.spill_directory + "/part_" +
                                      std::to_string(p) + ".rec"));
    }
    auto manifest = read_file_bytes(config.spill_directory + "/join_manifest.txt");
    if (!have_reference) {
      reference_files = std::move(files);
      reference_manifest = std::move(manifest);
      reference = result;
      have_reference = true;
      continue;
    }
    expect_same_collection(result, reference);
    EXPECT_EQ(manifest, reference_manifest);
    ASSERT_EQ(files.size(), reference_files.size());
    for (std::size_t p = 0; p < files.size(); ++p) {
      EXPECT_EQ(files[p], reference_files[p]) << "partition " << p;
    }
  }
}

// --- determinism sweep (threads 1/2/8) --------------------------------

/// The join's thread-count invariance, StudyDeterminism-style: results
/// and every deterministic obs counter must be identical at any pool
/// size.
class JoinDeterminism : public ::testing::TestWithParam<unsigned> {};

TEST_P(JoinDeterminism, BitIdenticalAcrossThreadCounts) {
  const auto pool_ips = make_tracker_pool(256);
  const auto records = make_records(0xDE7E2, 12'000, pool_ips);
  const auto index = make_index(pool_ips);

  // Serial reference: the definition of the result.
  obs::Registry ref_registry;
  netflow::JoinConfig ref_config;
  ref_config.spill_directory =
      temp_dir("det_ref_t" + std::to_string(GetParam()));
  {
    const auto ref_source = store_source(
        records, temp_path("det_ref_t" + std::to_string(GetParam()) + ".rec"));
    const auto ref = netflow::join_flows(ref_source, index, test_isp(), ref_config,
                                         /*pool=*/nullptr, &ref_registry);

    runtime::ThreadPool pool(GetParam());
    obs::Registry registry;
    netflow::JoinConfig config;
    config.spill_directory = temp_dir("det_t" + std::to_string(GetParam()));
    const auto source =
        store_source(records, temp_path("det_t" + std::to_string(GetParam()) + ".rec"));
    const auto got =
        netflow::join_flows(source, index, test_isp(), config, &pool, &registry);
    expect_same_collection(got, ref);

    // Deterministic join/netflow counters must not move with the thread
    // count.
    for (const char* name :
         {"cbwt_netflow_records_collected_total", "cbwt_netflow_internal_total",
          "cbwt_netflow_matched_total", "cbwt_netflow_join_partitions_total",
          "cbwt_netflow_join_spill_bytes_total",
          "cbwt_netflow_join_spill_records_total",
          "cbwt_netflow_join_spill_pages_total",
          "cbwt_netflow_join_spill_shards_total",
          "cbwt_netflow_join_resumed_total",
          "cbwt_netflow_join_probe_records_total"}) {
      EXPECT_EQ(registry.counter_value(name), ref_registry.counter_value(name))
          << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, JoinDeterminism, ::testing::Values(1u, 2u, 8u),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

// --- flow pages -------------------------------------------------------

TEST(FlowPage, EncodeParseFixpoint) {
  const auto pool_ips = make_tracker_pool(8);
  const auto records = make_records(0xF10A, 64, pool_ips);
  netflow::FlowPageBuilder builder;
  std::vector<netflow::FlowPage> pages;
  for (const auto& record : records) {
    if (!builder.try_add(record)) {
      pages.push_back(builder.take());
      ASSERT_TRUE(builder.try_add(record));
    }
  }
  if (!builder.empty()) pages.push_back(builder.take());
  ASSERT_FALSE(pages.empty());

  std::size_t total = 0;
  for (const auto& page : pages) {
    std::uint8_t buffer[netflow::kFlowPageBytes];
    netflow::encode_flow_page(page, buffer);
    const auto parsed = netflow::parse_flow_page({buffer, sizeof buffer});
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, page);
    // Canonical: re-encoding the parse reproduces the exact bytes.
    std::uint8_t again[netflow::kFlowPageBytes];
    netflow::encode_flow_page(*parsed, again);
    EXPECT_EQ(std::vector<std::uint8_t>(buffer, buffer + sizeof buffer),
              std::vector<std::uint8_t>(again, again + sizeof again));
    total += page.records.size();
  }
  EXPECT_EQ(total, records.size());
}

/// The in-place image builder must make the exact page-split decisions
/// and produce the exact sealed bytes of the buffer-then-encode path —
/// they share one per-record encoder, and this pins that they stay
/// shared.
TEST(FlowPage, ImageBuilderMatchesBatchEncoder) {
  const auto pool_ips = make_tracker_pool(16);
  const auto records = make_records(0x1A6E, 2'000, pool_ips);
  netflow::FlowPageBuilder batch;
  netflow::FlowPageImageBuilder inplace;
  std::vector<netflow::FlowPage> pages;
  std::vector<netflow::FlowPageImage> images;
  for (const auto& record : records) {
    const bool batch_fit = batch.try_add(record);
    const bool inplace_fit = inplace.try_add(record);
    ASSERT_EQ(batch_fit, inplace_fit);  // identical split decisions
    ASSERT_EQ(batch.records(), inplace.records());
    if (!batch_fit) {
      pages.push_back(batch.take());
      inplace.seal_into(images);
      ASSERT_TRUE(batch.try_add(record));
      ASSERT_TRUE(inplace.try_add(record));
    }
  }
  if (!batch.empty()) {
    pages.push_back(batch.take());
    inplace.seal_into(images);
  }
  ASSERT_GT(pages.size(), 1u);
  ASSERT_EQ(pages.size(), images.size());
  for (std::size_t i = 0; i < pages.size(); ++i) {
    std::uint8_t buffer[netflow::kFlowPageBytes];
    netflow::encode_flow_page(pages[i], buffer);
    EXPECT_EQ(0, std::memcmp(buffer, images[i].bytes.data(), sizeof buffer))
        << "page " << i;
    // And the sealed image parses back to the buffered page.
    const auto parsed = netflow::parse_flow_page(
        {images[i].bytes.data(), netflow::kFlowPageBytes});
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, pages[i]);
  }
}

/// append_encoded of in-place page images must leave a file that is
/// byte-for-byte the one append() of the decoded pages leaves — the
/// spill pass uses the former, and resume compares the superblock
/// checksum across runs.
TEST(FlowPage, EncodedAppendWithIncrementalChecksumMatchesAppend) {
  const auto pool_ips = make_tracker_pool(16);
  const auto records = make_records(0xE9C, 2'000, pool_ips);
  netflow::FlowPageBuilder batch;
  netflow::FlowPageImageBuilder inplace;
  const std::string decoded_path = temp_path("writer_parity_decoded.rec");
  const std::string encoded_path = temp_path("writer_parity_encoded.rec");
  {
    store::RecordFileWriter<netflow::FlowPageCodec> decoded_writer(decoded_path);
    store::RecordFileWriter<netflow::FlowPageCodec> encoded_writer(encoded_path);
    std::vector<netflow::FlowPageImage> images;
    for (const auto& record : records) {
      if (!batch.try_add(record)) {
        decoded_writer.append(batch.take());
        ASSERT_TRUE(batch.try_add(record));
      }
      if (!inplace.try_add(record)) {
        inplace.seal_into(images);
        ASSERT_TRUE(inplace.try_add(record));
      }
    }
    if (!batch.empty()) decoded_writer.append(batch.take());
    if (!inplace.empty()) inplace.seal_into(images);
    for (const auto& image : images) encoded_writer.append_encoded(image.bytes);
    ASSERT_GT(decoded_writer.size(), 1u);
    decoded_writer.finalize();
    encoded_writer.finalize();
  }
  EXPECT_EQ(read_file_bytes(encoded_path), read_file_bytes(decoded_path));
  // Both open clean (superblock checksum validates either way).
  EXPECT_EQ(store::RecordFileReader<netflow::FlowPageCodec>(encoded_path).checksum(),
            store::RecordFileReader<netflow::FlowPageCodec>(decoded_path).checksum());
}

TEST(FlowPage, RejectsCorruption) {
  netflow::FlowPage page;
  page.records = make_records(0xBADF10A, 8, {});
  std::uint8_t buffer[netflow::kFlowPageBytes];
  netflow::encode_flow_page(page, buffer);
  ASSERT_TRUE(netflow::parse_flow_page({buffer, sizeof buffer}).has_value());

  auto corrupted = [&](std::size_t at, std::uint8_t delta) {
    std::uint8_t copy[netflow::kFlowPageBytes];
    std::copy(buffer, buffer + sizeof buffer, copy);
    copy[at] ^= delta;
    return netflow::parse_flow_page({copy, sizeof copy});
  };
  EXPECT_FALSE(corrupted(0, 0xFF).has_value());   // magic
  EXPECT_FALSE(corrupted(2, 0x01).has_value());   // version
  EXPECT_FALSE(corrupted(3, 0x01).has_value());   // reserved byte
  EXPECT_FALSE(corrupted(5, 0x01).has_value());   // record count vs payload
  EXPECT_FALSE(corrupted(8, 0x01).has_value());   // checksum
  EXPECT_FALSE(corrupted(20, 0x01).has_value());  // payload bit flip
  // Non-zero padding after the payload.
  EXPECT_FALSE(corrupted(netflow::kFlowPageBytes - 1, 0x01).has_value());
  // Wrong span size.
  EXPECT_FALSE(netflow::parse_flow_page({buffer, 100}).has_value());
}

}  // namespace
}  // namespace cbwt
