// cbwt::store: mapped columnar files, superblock validation, blob
// interning, checkpoint manifests — and the subsystem guarantee that
// store-backed datasets and checkpoint/resume reproduce the in-memory
// pipeline bit for bit at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "browser/dataset_store.h"
#include "core/study.h"
#include "netflow/join.h"
#include "netflow/profile.h"
#include "netflow/snapshot_store.h"
#include "netflow/wire.h"
#include "obs/metrics.h"
#include "pdns/checkpoint.h"
#include "store/blob_file.h"
#include "store/bytes.h"
#include "store/checkpoint.h"
#include "store/dataset.h"
#include "store/mapped_file.h"
#include "store/record_file.h"
#include "store/superblock.h"
#include "util/fnv1a.h"

namespace cbwt {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/cbwt_store_" + name;
}

std::string temp_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- bytes ------------------------------------------------------------

TEST(StoreBytes, RoundTripsBigEndian) {
  std::uint8_t buf[8] = {};
  store::put_u16(buf, 0xBEEF);
  EXPECT_EQ(buf[0], 0xBE);
  EXPECT_EQ(store::get_u16(buf), 0xBEEF);
  store::put_u32(buf, 0xDEADBEEF);
  EXPECT_EQ(buf[0], 0xDE);
  EXPECT_EQ(store::get_u32(buf), 0xDEADBEEFu);
  store::put_u64(buf, 0x0123456789ABCDEFULL);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(store::get_u64(buf), 0x0123456789ABCDEFULL);
}

TEST(StoreBytes, FnvIsIncremental) {
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5, 6, 7};
  const auto whole = util::fnv1a({data.data(), data.size()});
  const auto head = util::fnv1a({data.data(), 3});
  const auto both = util::fnv1a({data.data() + 3, 4}, head);
  EXPECT_EQ(both, whole);
  EXPECT_NE(whole, util::fnv1a({data.data(), 6}));
  // Published FNV-1a 64 vectors: store checksums depend on these values.
  EXPECT_EQ(util::fnv1a(std::string_view("a")), 0xAF63DC4C8601EC8CULL);
  const std::string_view foobar = "foobar";
  EXPECT_EQ(util::fnv1a(foobar), 0x85944171F73967E8ULL);
  const std::vector<std::uint8_t> foobar_bytes(foobar.begin(), foobar.end());
  EXPECT_EQ(util::fnv1a(foobar_bytes), util::fnv1a(foobar));
}

// --- superblock -------------------------------------------------------

store::Superblock sample_superblock() {
  store::Superblock block;
  block.kind = store::RecordKind::NetflowWire;
  block.record_size = 57;
  block.record_count = 10;
  block.payload_bytes = 570;
  block.checksum = 0xABCD;
  return block;
}

TEST(StoreSuperblock, EncodeParseFixpoint) {
  std::uint8_t buf[store::kSuperblockSize];
  store::encode_superblock(sample_superblock(), {buf, sizeof buf});
  const auto parsed = store::parse_superblock({buf, sizeof buf});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, store::RecordKind::NetflowWire);
  EXPECT_EQ(parsed->record_size, 57u);
  EXPECT_EQ(parsed->record_count, 10u);
  EXPECT_EQ(parsed->payload_bytes, 570u);
  EXPECT_EQ(parsed->checksum, 0xABCDu);
  std::uint8_t again[store::kSuperblockSize];
  store::encode_superblock(*parsed, {again, sizeof again});
  EXPECT_EQ(std::vector<std::uint8_t>(buf, buf + sizeof buf),
            std::vector<std::uint8_t>(again, again + sizeof again));
}

TEST(StoreSuperblock, RejectsCorruption) {
  std::uint8_t buf[store::kSuperblockSize];
  store::encode_superblock(sample_superblock(), {buf, sizeof buf});
  EXPECT_TRUE(store::parse_superblock({buf, sizeof buf}).has_value());

  auto corrupt = [&](std::size_t at, std::uint8_t value) {
    std::uint8_t copy[store::kSuperblockSize];
    std::copy(buf, buf + sizeof buf, copy);
    copy[at] = value;
    return store::parse_superblock({copy, sizeof copy});
  };
  EXPECT_FALSE(corrupt(0, 'X').has_value());                       // magic
  EXPECT_FALSE(corrupt(8, 0xFF).has_value());                      // version
  EXPECT_FALSE(corrupt(11, 99).has_value());                       // kind
  EXPECT_FALSE(corrupt(63, 1).has_value());                        // reserved
  EXPECT_FALSE(corrupt(23, 1).has_value());                        // count vs payload
  EXPECT_FALSE(store::parse_superblock({buf, 32}).has_value());    // short
}

// --- mapped file ------------------------------------------------------

TEST(StoreMappedFile, CreateGrowTruncateReopen) {
  const std::string path = temp_path("mapped.bin");
  {
    auto file = store::MappedFile::create(path, 128);
    ASSERT_TRUE(file.is_open());
    EXPECT_GE(file.size(), 128u);
    file.data()[0] = 0xAB;
    file.grow_to(2 * 1024 * 1024);
    EXPECT_GE(file.size(), 2u * 1024 * 1024);
    EXPECT_EQ(file.data()[0], 0xAB);  // contents survive remap
    file.data()[file.size() - 1] = 0xCD;
    file.sync();
    file.truncate_to(4096);
  }
  auto reader = store::MappedFile::open_readonly(path);
  ASSERT_TRUE(reader.is_open());
  EXPECT_EQ(reader.size(), 4096u);
  EXPECT_EQ(reader.data()[0], 0xAB);
  EXPECT_THROW((void)store::MappedFile::open_readonly(temp_path("missing.bin")),
               store::StoreError);
}

// --- record file (netflow wire codec) ---------------------------------

netflow::RawRecord sample_record(std::uint32_t i) {
  netflow::RawRecord record;
  record.timestamp_s = i;
  record.router = static_cast<std::uint16_t>(i % 48);
  record.interface = static_cast<std::uint16_t>(i % 8);
  record.internal_interface = (i % 3) != 0;
  record.protocol = (i % 2) != 0 ? 6 : 17;
  record.src = net::IpAddress::v4(0x0A000000u + i);
  record.dst = (i % 2) != 0 ? net::IpAddress::v6(0x20010DB8u, i)
                            : net::IpAddress::v4(0xC0A80000u + i);
  record.src_port = static_cast<std::uint16_t>(32768 + i);
  record.dst_port = (i % 2) != 0 ? 443 : 80;
  record.packets = 1 + i;
  record.bytes = 60 * (1 + i);
  record.tos = static_cast<std::uint8_t>(i);
  return record;
}

TEST(StoreRecordFile, RoundTripsAcrossGrowth) {
  const std::string path = temp_path("records.rec");
  constexpr std::uint32_t kCount = 100'000;  // forces several grow_to remaps
  {
    store::RecordFileWriter<netflow::WireCodec> writer(path);
    for (std::uint32_t i = 0; i < kCount; ++i) writer.append(sample_record(i));
    EXPECT_EQ(writer.size(), kCount);
    writer.finalize();
  }
  const store::RecordFileReader<netflow::WireCodec> reader(path);
  ASSERT_EQ(reader.size(), kCount);
  EXPECT_EQ(reader.at(0), sample_record(0));
  EXPECT_EQ(reader.at(kCount - 1), sample_record(kCount - 1));
  std::uint64_t seen = 0;
  reader.for_each_chunk(4096, [&](std::span<const netflow::RawRecord> chunk,
                                  std::uint64_t base) {
    EXPECT_EQ(base, seen);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      ASSERT_EQ(chunk[i], sample_record(static_cast<std::uint32_t>(base + i)));
    }
    seen += chunk.size();
  });
  EXPECT_EQ(seen, kCount);
  // Exact file length: superblock + payload, no slack pages left behind.
  EXPECT_EQ(std::filesystem::file_size(path),
            store::kSuperblockSize + std::uint64_t{kCount} * netflow::kWireRecordSize);
}

TEST(StoreRecordFile, WriterDtorFinalizes) {
  const std::string path = temp_path("dtor.rec");
  {
    store::RecordFileWriter<netflow::WireCodec> writer(path);
    writer.append(sample_record(7));
    // no explicit finalize(): the destructor must stamp the superblock
  }
  const store::RecordFileReader<netflow::WireCodec> reader(path);
  ASSERT_EQ(reader.size(), 1u);
  EXPECT_EQ(reader.at(0), sample_record(7));
}

TEST(StoreRecordFile, IoMetricsCountWritesReadsAndChecksumWork) {
  const std::string path = temp_path("metrics.rec");
  constexpr std::uint64_t kCount = 1000;
  const std::uint64_t payload = kCount * netflow::kWireRecordSize;
  const std::uint64_t payload_pages = (payload + 4095) / 4096;

  obs::Registry registry;
  {
    store::RecordFileWriter<netflow::WireCodec> writer(path, &registry);
    for (std::uint32_t i = 0; i < kCount; ++i) writer.append(sample_record(i));
    // Counters accumulate off the hot path: nothing before finalize.
    EXPECT_EQ(registry.counter_value("cbwt_store_records_written_total"), 0u);
    writer.finalize();
    writer.finalize();  // idempotent: no double count
  }
  EXPECT_EQ(registry.counter_value("cbwt_store_records_written_total"), kCount);
  EXPECT_EQ(registry.counter_value("cbwt_store_bytes_written_total"),
            store::kSuperblockSize + payload);
  EXPECT_EQ(registry.counter_value("cbwt_store_files_finalized_total"), 1u);
  // The writer folds its checksum at append: finalize re-reads nothing.
  EXPECT_EQ(registry.counter_value("cbwt_store_checksum_windows_total"), 0u);
  EXPECT_EQ(registry.counter_value("cbwt_store_pages_dropped_total"), 0u);

  const store::RecordFileReader<netflow::WireCodec> reader(path, &registry);
  EXPECT_EQ(registry.counter_value("cbwt_store_files_opened_total"), 1u);
  // Open-time validation checksums the payload: one 8 MiB window for a
  // small file, every payload page dropped after hashing.
  EXPECT_EQ(registry.counter_value("cbwt_store_checksum_windows_total"), 1u);
  EXPECT_EQ(registry.counter_value("cbwt_store_pages_dropped_total"), payload_pages);

  std::uint64_t chunk_pages = 0;
  reader.for_each_chunk(256, [&](std::span<const netflow::RawRecord> chunk,
                                 std::uint64_t /*base*/) {
    chunk_pages += (chunk.size() * netflow::kWireRecordSize + 4095) / 4096;
  });
  EXPECT_EQ(registry.counter_value("cbwt_store_records_read_total"), kCount);
  EXPECT_EQ(registry.counter_value("cbwt_store_bytes_read_total"), payload);
  EXPECT_EQ(registry.counter_value("cbwt_store_pages_dropped_total"),
            payload_pages + chunk_pages);

  // No registry -> the metric paths are null-check no-ops.
  const store::RecordFileReader<netflow::WireCodec> silent(path);
  silent.for_each_chunk(4096, [](auto, std::uint64_t) {});
  EXPECT_EQ(registry.counter_value("cbwt_store_files_opened_total"), 1u);
}

TEST(StoreRecordFile, RejectsCorruptionAndMismatch) {
  const std::string path = temp_path("corrupt.rec");
  {
    store::RecordFileWriter<netflow::WireCodec> writer(path);
    for (std::uint32_t i = 0; i < 100; ++i) writer.append(sample_record(i));
  }
  // Flip one payload byte: the checksum must catch it.
  std::filesystem::copy_file(path, path + ".flip2",
                             std::filesystem::copy_options::overwrite_existing);
  {
    std::FILE* f = std::fopen((path + ".flip2").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, store::kSuperblockSize + 10, SEEK_SET);
    std::fputc(0xFF, f);
    std::fclose(f);
  }
  EXPECT_THROW((store::RecordFileReader<netflow::WireCodec>(path + ".flip2")),
               store::StoreError);
  // Truncated payload: geometry check.
  std::filesystem::resize_file(path + ".flip2", store::kSuperblockSize + 57);
  EXPECT_THROW((store::RecordFileReader<netflow::WireCodec>(path + ".flip2")),
               store::StoreError);
  // A valid file of a different record kind must be refused by kind tag.
  const std::string pdns_path = temp_path("kind.rec");
  {
    store::RecordFileWriter<pdns::RecordRowCodec> writer(pdns_path);
    pdns::RecordRow row;
    row.ip = net::IpAddress::v4(1);
    writer.append(row);
  }
  EXPECT_THROW((store::RecordFileReader<netflow::WireCodec>(pdns_path)),
               store::StoreError);
}

// --- blob file --------------------------------------------------------

TEST(StoreBlobFile, InternsAndReadsBack) {
  const std::string path = temp_path("blobs.blob");
  store::BlobRef a;
  store::BlobRef b;
  store::BlobRef c;
  {
    store::BlobFileWriter writer(path);
    a = writer.intern("tracker.example");
    b = writer.intern("cdn.example");
    c = writer.intern("tracker.example");  // dedupe: same handle
    EXPECT_EQ(a, c);
    EXPECT_EQ(writer.size(), 2u);
    const auto empty = writer.intern("");
    EXPECT_EQ(empty.length, 0u);
    EXPECT_EQ(writer.size(), 2u);  // empty blob is the implicit zero ref
  }
  const store::BlobFileReader reader(path);
  EXPECT_EQ(reader.size(), 2u);
  EXPECT_EQ(reader.view(a), "tracker.example");
  EXPECT_EQ(reader.view(b), "cdn.example");
  EXPECT_EQ(reader.view(store::BlobRef{}), "");
  // A ref pointing outside the payload is a cross-file inconsistency.
  EXPECT_THROW((void)reader.view(store::BlobRef{1000, 50}), store::StoreError);
}

TEST(StoreBlobFile, AppendWritesBytesAsTheyAre) {
  const std::string path = temp_path("appended.blob");
  {
    store::BlobFileWriter writer(path);
    EXPECT_EQ(writer.append("tracker.example"), 0u);
    EXPECT_EQ(writer.append("tracker.example"), 15u);  // no dedupe
    EXPECT_EQ(writer.intern("cdn.example").offset, 30u);
    EXPECT_EQ(writer.intern("tracker.example").offset, 30u + 11u);  // appends are not indexed
    EXPECT_EQ(writer.size(), 2u);  // interned blobs only
  }
  const store::BlobFileReader reader(path);
  EXPECT_EQ(reader.payload(), "tracker.exampletracker.examplecdn.exampletracker.example");
  EXPECT_EQ(reader.view(store::BlobRef{15, 7}), "tracker");
}

// --- checkpoint manifest ----------------------------------------------

TEST(StoreManifest, RoundTripsExactly) {
  const std::string path = temp_path("manifest.txt");
  store::Manifest manifest;
  manifest.set_u64("seed", 20180901);
  manifest.set_f64("world_scale", 0.01);  // not exactly representable
  manifest.set_f64("negative", -2.5e-17);
  manifest.set("file", "dataset.rec");
  manifest.set("file", "pdns.rec");
  store::write_manifest(path, manifest);
  const auto loaded = store::read_manifest(path);
  EXPECT_EQ(loaded.get_u64("seed"), 20180901u);
  // Bit-exact double round-trip, not a decimal approximation.
  EXPECT_EQ(loaded.get_f64("world_scale"), 0.01);
  EXPECT_EQ(loaded.get_f64("negative"), -2.5e-17);
  const auto files = loaded.get_all("file");
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "dataset.rec");
  EXPECT_EQ(files[1], "pdns.rec");
  EXPECT_FALSE(loaded.get("absent").has_value());
  EXPECT_THROW((void)store::read_manifest(temp_path("no_manifest.txt")),
               store::StoreError);
}

TEST(StoreManifest, FormatParseRoundTrips) {
  store::Manifest manifest;
  manifest.set_u64("seed", 20180901);
  manifest.set("file", "dataset.rec");
  manifest.set("note", "two words  and a trailing space ");
  manifest.set("empty", "");
  const std::string text = store::format_manifest(manifest);
  EXPECT_TRUE(text.starts_with("cbwt-checkpoint 1\n")) << text;
  EXPECT_EQ(store::parse_manifest(text).entries(), manifest.entries());
}

TEST(StoreManifest, ParseRejectsMalformedText) {
  for (const std::string_view text :
       {"", "\n", "cbwt-checkpoint\n", "cbwt-snapshot 1\nseed 1\n", "cbwt-checkpoint 2\n",
        "cbwt-checkpoint 01x\n", "cbwt-checkpoint -1\n", "cbwt-checkpoint  1\n",
        "cbwt-checkpoint 18446744073709551617\n", "cbwt-checkpoint 1\nseed\n",
        "cbwt-checkpoint 1\n value\n"}) {
    EXPECT_THROW((void)store::parse_manifest(text), store::StoreError) << text;
  }
  // Blank lines are skipped; a missing final newline is fine; an
  // oversized number parses as text and reads as no value.
  const auto manifest =
      store::parse_manifest("cbwt-checkpoint 1\n\nseed 18446744073709551616\nfile a b");
  EXPECT_EQ(manifest.get("seed"), "18446744073709551616");
  EXPECT_EQ(manifest.get_u64("seed"), std::nullopt);
  EXPECT_EQ(manifest.get("file"), "a b");
}

TEST(StoreManifest, GetU64AcceptsOnlyWhatSetWrites) {
  // Resume reads seeds, counts and join geometry through get_u64, so a
  // sign, padding or a bare prefix must read as "no value", never as a
  // wrapped or trimmed number.
  store::Manifest manifest;
  manifest.set_u64("max", UINT64_MAX);
  manifest.set_f64("bits", 0.5);
  manifest.set("hex", "0xFF");
  manifest.set("negative", "-1");
  manifest.set("padded", " 7");
  manifest.set("plus", "+3");
  manifest.set("trailing", "7 ");
  manifest.set("bare_prefix", "0x");
  manifest.set("hex_negative", "0x-1");
  manifest.set("empty", "");
  manifest.set("overflow", "18446744073709551616");
  EXPECT_EQ(manifest.get_u64("max"), UINT64_MAX);
  EXPECT_EQ(manifest.get_f64("bits"), 0.5);
  EXPECT_EQ(manifest.get_u64("hex"), 255u);
  for (const char* key : {"negative", "padded", "plus", "trailing", "bare_prefix",
                          "hex_negative", "empty", "overflow"}) {
    EXPECT_EQ(manifest.get_u64(key), std::nullopt) << key;
  }
}

// --- pdns checkpoint --------------------------------------------------

TEST(StorePdnsCheckpoint, RestoredStoreIsIndistinguishable) {
  pdns::Store original;
  for (std::uint32_t i = 0; i < 500; ++i) {
    // Appended, not "t" + ...: GCC 12 -O3 -Werror=restrict false positive.
    std::string fqdn(1, 't');
    fqdn.append(std::to_string(i % 40)).append(".track.example");
    original.observe(fqdn, "track.example", net::IpAddress::v4(0x0A000000u + i % 60),
                     static_cast<pdns::Day>(i % 30));
    original.observe(fqdn, "track.example", net::IpAddress::v6(0x20010DB8, i % 13),
                     static_cast<pdns::Day>(i % 90));
  }
  const std::string dir = temp_dir("pdns_ckpt");
  pdns::save_store(original, dir + "/pdns.rec", dir + "/pdns.blob");
  const pdns::Store restored = pdns::load_store(dir + "/pdns.rec", dir + "/pdns.blob");

  ASSERT_EQ(restored.record_count(), original.record_count());
  for (std::size_t i = 0; i < original.records().size(); ++i) {
    const auto& a = original.records()[i];
    const auto& b = restored.records()[i];
    EXPECT_EQ(a.fqdn, b.fqdn);
    EXPECT_EQ(a.registrable, b.registrable);
    EXPECT_EQ(a.ip, b.ip);
    EXPECT_EQ(a.first_seen, b.first_seen);
    EXPECT_EQ(a.last_seen, b.last_seen);
    EXPECT_EQ(a.observations, b.observations);
  }
  EXPECT_EQ(restored.all_ips(), original.all_ips());
  EXPECT_EQ(restored.ips_of_registrable("track.example"),
            original.ips_of_registrable("track.example"));
  EXPECT_EQ(restored.ips_of_registrable_at("track.example", 10),
            original.ips_of_registrable_at("track.example", 10));
  EXPECT_EQ(restored.observations_of(net::IpAddress::v4(0x0A000005u)),
            original.observations_of(net::IpAddress::v4(0x0A000005u)));
}

// --- browser dataset checkpoint ---------------------------------------

/// 2,000 requests over 25 × 7 URLs and 90 page URLs, each added to the
/// dataset's text per request (so the text repeats, as collection's
/// does); every seventh referrer is a literal outside that text.
browser::ExtensionDataset checkpoint_fixture() {
  browser::ExtensionDataset dataset;
  for (std::uint32_t i = 0; i < 2'000; ++i) {
    browser::ThirdPartyRequest request;
    request.user = i % 350;
    request.publisher = i % 90;
    request.domain = i % 200;
    request.url = dataset.add_text("https://t" + std::to_string(i % 25) + ".example/pix?id=" +
                                   std::to_string(i % 7));
    if (i % 7 == 0) {
      request.referrer = "https://static.example/";
    } else if (i % 3 != 0) {
      request.referrer = dataset.add_text("https://pub" + std::to_string(i % 90) + ".example/");
    }
    request.server_ip = (i % 5) != 0 ? net::IpAddress::v4(0x0B000000u + i % 100)
                                     : net::IpAddress::v6(0x20010DB8, i % 17);
    request.day = static_cast<pdns::Day>(i % 135);
    request.chain_depth = static_cast<std::uint8_t>(i % 4);
    request.https = (i % 6) != 0;
    request.interaction_triggered = (i % 11) == 0;
    dataset.requests.push_back(request);
  }
  return dataset;
}

void expect_same_requests(const browser::ExtensionDataset& got,
                          const browser::ExtensionDataset& want) {
  ASSERT_EQ(got.requests.size(), want.requests.size());
  for (std::size_t i = 0; i < got.requests.size(); ++i) {
    const auto& a = want.requests[i];
    const auto& b = got.requests[i];
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.publisher, b.publisher);
    EXPECT_EQ(a.domain, b.domain);
    EXPECT_EQ(a.url, b.url);
    EXPECT_EQ(a.referrer, b.referrer);
    EXPECT_EQ(a.server_ip, b.server_ip);
    EXPECT_EQ(a.day, b.day);
    EXPECT_EQ(a.chain_depth, b.chain_depth);
    EXPECT_EQ(a.https, b.https);
    EXPECT_EQ(a.interaction_triggered, b.interaction_triggered);
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(StoreBrowserCheckpoint, RestoredRequestsMatchExactly) {
  const auto dataset = checkpoint_fixture();
  const std::string dir = temp_dir("browser_ckpt");
  browser::save_requests(dataset, dir + "/dataset.rec", dir + "/dataset.blob");
  const auto restored = browser::load_requests(dir + "/dataset.rec", dir + "/dataset.blob");
  expect_same_requests(restored, dataset);
  EXPECT_EQ(restored.first_party_visits, 0U);  // the manifest carries the aggregates
  EXPECT_EQ(restored.distinct_publishers, 0U);

  // The payload is the text buffer as it is, then the one literal that
  // lies outside it (appended once per request that views it).
  const store::BlobFileReader blobs(dir + "/dataset.blob");
  const std::size_t literals = (dataset.requests.size() + 6) / 7;
  EXPECT_EQ(blobs.payload_bytes(),
            dataset.text->bytes_used() + literals * std::string_view("https://static.example/").size());
  std::string image;
  dataset.text->for_each_run([&](std::string_view run) { image.append(run); });
  EXPECT_EQ(blobs.payload().substr(0, image.size()), image);
  // Every restored view lies inside the one copy of the payload.
  for (const auto& request : restored.requests) {
    EXPECT_TRUE(restored.text->offset_of(request.url).has_value());
  }
}

TEST(StoreBrowserCheckpoint, ResavingARestoredDatasetWritesTheSameBytes) {
  const std::string dir = temp_dir("browser_resave");
  browser::save_requests(checkpoint_fixture(), dir + "/a.rec", dir + "/a.blob");
  const auto restored = browser::load_requests(dir + "/a.rec", dir + "/a.blob");
  browser::save_requests(restored, dir + "/b.rec", dir + "/b.blob");
  EXPECT_EQ(file_bytes(dir + "/b.rec"), file_bytes(dir + "/a.rec"));
  EXPECT_EQ(file_bytes(dir + "/b.blob"), file_bytes(dir + "/a.blob"));
}

TEST(StoreBrowserCheckpoint, LoadsInternedBlobFiles) {
  // Earlier writers interned every URL and referrer (one copy per
  // distinct string, refs shared between rows); such checkpoints resume.
  const auto dataset = checkpoint_fixture();
  const std::string dir = temp_dir("browser_interned");
  {
    store::BlobFileWriter blobs(dir + "/dataset.blob");
    store::RecordFileWriter<browser::RequestRowCodec> rows(dir + "/dataset.rec");
    for (const auto& request : dataset.requests) {
      browser::RequestRow row;
      row.url = blobs.intern(request.url);
      row.referrer = blobs.intern(request.referrer);
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
  }
  expect_same_requests(
      browser::load_requests(dir + "/dataset.rec", dir + "/dataset.blob"), dataset);
}

TEST(StoreBrowserCheckpoint, RefPastThePayloadFailsTheLoad) {
  const std::string dir = temp_dir("browser_bad_ref");
  {
    store::BlobFileWriter blobs(dir + "/dataset.blob");
    const store::BlobRef url = blobs.intern("https://t.example/pix");
    store::RecordFileWriter<browser::RequestRowCodec> rows(dir + "/dataset.rec");
    browser::RequestRow row;
    row.url = url;
    rows.append(row);
    row.referrer = store::BlobRef{url.offset + 4, url.length};  // ends 4 bytes past it
    rows.append(row);
  }
  EXPECT_THROW((void)browser::load_requests(dir + "/dataset.rec", dir + "/dataset.blob"),
               store::StoreError);
}

// --- end-to-end: store-backed == in-memory, resume == straight-through -

core::StudyConfig small_config(unsigned threads) {
  core::StudyConfig config;
  config.world.seed = 20180901;
  // Same sizing rationale as the determinism sweep in test_runtime: two
  // full studies per TEST_P process, also run under sanitizers in CI.
  config.world.scale = 0.01;
  config.netflow.scale = 2e-5;
  config.threads = threads;
  return config;
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

/// The tentpole guarantee: a store-backed study produces byte-identical
/// results to the in-memory one, for every thread count.
class StoreBackedDeterminism : public ::testing::TestWithParam<unsigned> {};

TEST_P(StoreBackedDeterminism, MatchesInMemoryBitForBit) {
  auto memory_config = small_config(GetParam());
  auto store_config = small_config(GetParam());
  store_config.storage.mode = store::Mode::StoreBacked;
  store_config.storage.directory =
      temp_dir("backed_t" + std::to_string(GetParam()));
  core::Study memory(memory_config);
  core::Study backed(store_config);

  const auto isp = netflow::default_isps()[0];
  const auto snapshot = netflow::default_snapshots()[0];
  const auto ref_run = memory.run_isp_snapshot(isp, snapshot);
  const auto got_run = backed.run_isp_snapshot(isp, snapshot);
  EXPECT_EQ(got_run.exported_records, ref_run.exported_records);
  expect_same_collection(got_run.collection, ref_run.collection);

  // With no registry attached, run_report() is a pure function of the
  // config — the two reports must be byte-identical.
  EXPECT_EQ(backed.run_report(), memory.run_report());
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, StoreBackedDeterminism,
                         ::testing::Values(1u, 2u, 8u),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

/// The out-of-core join's counters must account for its spill files
/// exactly: cbwt_netflow_join_spill_bytes_total equals the finalized
/// partition files on disk byte for byte, every collected record was
/// probed from a spill page, and run_report() surfaces the counters.
TEST(StoreJoinCounters, SpillBytesMatchDiskExactly) {
  auto config = small_config(2);
  config.storage.mode = store::Mode::StoreBacked;
  config.storage.directory = temp_dir("join_counters");
  obs::Registry registry;
  config.registry = &registry;
  core::Study study(config);
  const auto isp = netflow::default_isps()[0];
  const auto snapshot = netflow::default_snapshots()[0];
  const auto run = study.run_isp_snapshot(isp, snapshot);

  EXPECT_EQ(registry.counter_value("cbwt_netflow_join_partitions_total"),
            netflow::JoinConfig{}.partitions);
  EXPECT_EQ(registry.counter_value("cbwt_netflow_join_probe_records_total"),
            run.collection.records_seen);
  EXPECT_EQ(registry.counter_value("cbwt_netflow_records_collected_total"),
            run.collection.records_seen);

  // The join's phase timings reach run_report() and /metrics only through
  // these spans, so each must be recorded with its phase's item count.
  const auto spans = registry.spans();
  const auto find_span = [&](std::string_view name) {
    return std::find_if(spans.begin(), spans.end(),
                        [&](const obs::SpanRecord& span) { return span.name == name; });
  };
  const auto partition = find_span("netflow/join/partition");
  ASSERT_NE(partition, spans.end());
  EXPECT_EQ(partition->items,
            registry.counter_value("cbwt_netflow_join_spill_records_total"));
  const auto probe = find_span("netflow/join/probe");
  ASSERT_NE(probe, spans.end());
  EXPECT_EQ(probe->items, run.collection.records_seen);
  // The snapshot file's closing sync and its open-time checksum pass
  // each run in their own span inside the ISP day, over every record.
  for (const std::string_view name : {"netflow/snapshot_finalize", "netflow/snapshot_verify"}) {
    const auto pass = find_span(name);
    ASSERT_NE(pass, spans.end()) << name;
    EXPECT_EQ(pass->parent, "study/isp_snapshot") << name;
    EXPECT_EQ(pass->items, run.exported_records) << name;
  }

  std::uint64_t disk_bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           config.storage.directory)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.starts_with("part_") &&
        name.ends_with(".rec")) {
      disk_bytes += entry.file_size();
    }
  }
  EXPECT_GT(disk_bytes, 0u);
  EXPECT_EQ(registry.counter_value("cbwt_netflow_join_spill_bytes_total"),
            disk_bytes);
  EXPECT_NE(study.run_report().find("cbwt_netflow_join_spill_bytes_total"),
            std::string::npos);
}

/// Checkpoint/resume: a process that saves after the dataset stage and
/// a second process that resumes from the directory must reproduce the
/// straight-through run exactly — including when the resumed study runs
/// at a different thread count.
class CheckpointResume : public ::testing::TestWithParam<unsigned> {};

TEST_P(CheckpointResume, ResumeEqualsStraightThrough) {
  const std::string dir = temp_dir("resume_t" + std::to_string(GetParam()));

  // "Process 1": run the dataset stage and checkpoint (replication has
  // not run yet; the manifest records that).
  {
    core::Study first(small_config(2));
    (void)first.dataset();
    first.save_checkpoint(dir);
  }

  // Straight-through reference.
  core::Study reference(small_config(1));
  // "Process 2": resume from the checkpoint at the swept thread count.
  auto resumed_config = small_config(GetParam());
  resumed_config.storage.resume_from = dir;
  core::Study resumed(resumed_config);

  ASSERT_EQ(resumed.dataset().requests.size(), reference.dataset().requests.size());
  EXPECT_EQ(resumed.dataset().first_party_visits, reference.dataset().first_party_visits);
  EXPECT_EQ(resumed.dataset().distinct_publishers,
            reference.dataset().distinct_publishers);
  EXPECT_EQ(resumed.pdns_store().record_count(), reference.pdns_store().record_count());
  EXPECT_EQ(resumed.pdns_store().all_ips(), reference.pdns_store().all_ips());
  EXPECT_EQ(resumed.completed_tracker_ips(), reference.completed_tracker_ips());

  const auto isp = netflow::default_isps()[0];
  const auto snapshot = netflow::default_snapshots()[0];
  const auto ref_run = reference.run_isp_snapshot(isp, snapshot);
  const auto got_run = resumed.run_isp_snapshot(isp, snapshot);
  EXPECT_EQ(got_run.exported_records, ref_run.exported_records);
  expect_same_collection(got_run.collection, ref_run.collection);
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, CheckpointResume, ::testing::Values(1u, 2u, 8u),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

TEST(CheckpointResumeEdge, PostReplicationCheckpointSkipsReplication) {
  const std::string dir = temp_dir("resume_post_repl");
  core::Study reference(small_config(1));
  {
    core::Study first(small_config(1));
    (void)first.pdns_store();  // replication has run before the save
    first.save_checkpoint(dir);
  }
  auto resumed_config = small_config(1);
  resumed_config.storage.resume_from = dir;
  core::Study resumed(resumed_config);
  EXPECT_EQ(resumed.pdns_store().all_ips(), reference.pdns_store().all_ips());
  EXPECT_EQ(resumed.completed_tracker_ips(), reference.completed_tracker_ips());
  // Identical configs, identical state -> byte-identical reports.
  EXPECT_EQ(resumed.run_report(), reference.run_report());
}

TEST(CheckpointResumeEdge, RejectsMismatchedSeedOrScale) {
  const std::string dir = temp_dir("resume_mismatch");
  {
    core::Study first(small_config(1));
    first.save_checkpoint(dir);
  }
  auto wrong_seed = small_config(1);
  wrong_seed.world.seed = 7;
  wrong_seed.storage.resume_from = dir;
  core::Study bad_seed(wrong_seed);
  EXPECT_THROW((void)bad_seed.dataset(), store::StoreError);

  auto wrong_scale = small_config(1);
  wrong_scale.world.scale = 0.02;
  wrong_scale.storage.resume_from = dir;
  core::Study bad_scale(wrong_scale);
  EXPECT_THROW((void)bad_scale.dataset(), store::StoreError);
}

/// Every regular file under `dir`, by file name, with the FNV-1a hash of
/// its bytes (a short failure message, unlike the bytes themselves).
std::vector<std::pair<std::string, std::uint64_t>> directory_files(const std::string& dir) {
  std::vector<std::pair<std::string, std::uint64_t>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files.emplace_back(entry.path().filename().string(),
                         util::fnv1a(file_bytes(entry.path().string())));
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void expect_same_pdns_records(const pdns::Store& got, const pdns::Store& want) {
  ASSERT_EQ(got.record_count(), want.record_count());
  for (std::size_t i = 0; i < want.records().size(); ++i) {
    const auto& a = got.records()[i];
    const auto& b = want.records()[i];
    ASSERT_TRUE(a.fqdn == b.fqdn && a.registrable == b.registrable && a.ip == b.ip &&
                a.first_seen == b.first_seen && a.last_seen == b.last_seen &&
                a.observations == b.observations)
        << "record " << i;
  }
}

/// With a pool, replication's batch is drawn beside collection and
/// folded by pdns_store(). The store and every checkpoint file must be
/// the serial path's: saved while the batch is still pending (the
/// manifest says replication has not run), saved after the fold, and
/// after resuming from the pending checkpoint.
TEST(CheckpointThreads, OverlappedReplicationSavesAndFoldsLikeTheSerialPath) {
  struct Run {
    std::string pending_dir;
    std::string replicated_dir;
    std::string resumed_dir;
  };
  std::vector<Run> runs;
  std::optional<pdns::Store> reference;
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::string tag = "overlap_t" + std::to_string(threads);
    Run run{temp_dir(tag + "_pending"), temp_dir(tag + "_replicated"),
            temp_dir(tag + "_resumed")};
    {
      core::Study study(small_config(threads));
      (void)study.dataset();
      study.save_checkpoint(run.pending_dir);
      const pdns::Store& store = study.pdns_store();
      if (!reference) reference.emplace(store);
      expect_same_pdns_records(store, *reference);
      study.save_checkpoint(run.replicated_dir);
    }
    {
      auto config = small_config(threads);
      config.storage.resume_from = run.pending_dir;
      core::Study resumed(config);
      expect_same_pdns_records(resumed.pdns_store(), *reference);
      resumed.save_checkpoint(run.resumed_dir);
    }
    runs.push_back(std::move(run));
  }
  const Run& serial = runs.front();
  EXPECT_NE(directory_files(serial.pending_dir), directory_files(serial.replicated_dir));
  EXPECT_EQ(directory_files(serial.resumed_dir), directory_files(serial.replicated_dir));
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(directory_files(runs[i].pending_dir), directory_files(serial.pending_dir));
    EXPECT_EQ(directory_files(runs[i].replicated_dir), directory_files(serial.replicated_dir));
    EXPECT_EQ(directory_files(runs[i].resumed_dir), directory_files(serial.replicated_dir));
  }
}

}  // namespace
}  // namespace cbwt
