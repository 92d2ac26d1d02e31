#include "netflow/collector.h"
#include "netflow/generator.h"
#include "netflow/profile.h"
#include "netflow/sflow.h"
#include "netflow/wire.h"

#include <gtest/gtest.h>

#include <memory>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace cbwt::netflow {
namespace {

TEST(Profiles, TableSevenShape) {
  const auto isps = default_isps();
  ASSERT_EQ(isps.size(), 4U);
  EXPECT_EQ(isps[0].name, "DE-Broadband");
  EXPECT_EQ(isps[0].country, "DE");
  EXPECT_EQ(isps[0].access, AccessType::Broadband);
  EXPECT_DOUBLE_EQ(isps[0].subscribers_m, 15.0);
  EXPECT_EQ(isps[1].name, "DE-Mobile");
  EXPECT_DOUBLE_EQ(isps[1].subscribers_m, 40.0);
  EXPECT_EQ(isps[2].name, "PL");
  EXPECT_EQ(isps[3].name, "HU");
  // Mobile operators keep users behind the ISP resolver.
  EXPECT_LT(isps[1].third_party_resolver_share, isps[0].third_party_resolver_share);
}

TEST(Profiles, SnapshotsBracketTheGdprDate) {
  const auto snapshots = default_snapshots();
  ASSERT_EQ(snapshots.size(), 4U);
  EXPECT_EQ(snapshots[0].label, "Nov 8");
  EXPECT_EQ(snapshots[3].label, "June 20");
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_GT(snapshots[i].day, snapshots[i - 1].day);
  }
}

TEST(Anonymize, StripsSubscriberSide) {
  RawRecord record;
  record.src = net::IpAddress::v4(0x59000001);  // subscriber
  record.dst = net::IpAddress::v4(0x0B000001);  // tracker
  record.src_port = 44444;
  record.dst_port = 443;
  record.protocol = 6;
  record.packets = 3;
  record.bytes = 999;
  const auto anon = anonymize(record, /*subscriber_is_src=*/true, "DE");
  EXPECT_EQ(anon.subscriber_country, "DE");
  EXPECT_EQ(anon.remote, record.dst);
  EXPECT_EQ(anon.remote_port, 443);
  EXPECT_EQ(anon.direction, Direction::Outbound);
  // Reverse direction:
  const auto inbound = anonymize(record, /*subscriber_is_src=*/false, "DE");
  EXPECT_EQ(inbound.remote, record.src);
  EXPECT_EQ(inbound.direction, Direction::Inbound);
}

class NetflowPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world::WorldConfig config;
    config.seed = 606;
    config.scale = 0.01;
    config.publishers = 300;
    world_ = new world::World(world::build_world(config));
    resolver_ = new dns::Resolver(*world_);
    config_.scale = 2e-6;  // tiny but enough records to aggregate
  }
  static void TearDownTestSuite() {
    delete resolver_;
    delete world_;
  }
  static world::World* world_;
  static dns::Resolver* resolver_;
  static GeneratorConfig config_;
};

world::World* NetflowPipeline::world_ = nullptr;
dns::Resolver* NetflowPipeline::resolver_ = nullptr;
GeneratorConfig NetflowPipeline::config_;

/// One generated snapshot, held whole: the records plus the counts.
struct Generated {
  std::vector<RawRecord> records;
  SnapshotCounts counts;
};

Generated generate(const world::World& world, const dns::Resolver& resolver,
                   const IspProfile& isp, const Snapshot& snapshot,
                   const GeneratorConfig& config, std::uint64_t seed,
                   const fault::FaultPlan* plan = nullptr) {
  Generated out;
  out.counts = generate_snapshot_stream(
      world, resolver, isp, snapshot, config, seed, /*pool=*/nullptr,
      [&out](std::span<const RawRecord> batch) {
        out.records.insert(out.records.end(), batch.begin(), batch.end());
      },
      /*registry=*/nullptr, plan);
  EXPECT_EQ(out.records.size(), out.counts.records);
  return out;
}

/// Every tracking server IP: the ground-truth join list.
TrackerIpIndex all_tracker_ips(const world::World& world) {
  TrackerIpIndex index;
  for (const auto id : world.tracking_domain_ids()) {
    for (const auto sid : world.domain(id).servers) index.add(world.server(sid).ip);
  }
  return index;
}

TEST_F(NetflowPipeline, VolumeScalesWithProfile) {
  const auto& isps = default_isps();
  const auto& snapshot = default_snapshots()[1];
  const auto big = generate(*world_, *resolver_, isps[0], snapshot, config_, /*seed=*/1);
  const auto small = generate(*world_, *resolver_, isps[2], snapshot, config_, /*seed=*/1);
  // DE-Broadband exports ~75x more than PL (Table 8 volumes).
  EXPECT_GT(big.counts.tracking_intended, small.counts.tracking_intended * 30);
  const std::uint64_t intended =
      big.counts.tracking_intended + big.counts.background_intended;
  EXPECT_EQ(big.records.size(), intended + intended / 50);
}

TEST_F(NetflowPipeline, RecordsAreWellFormed) {
  const auto exported = generate(*world_, *resolver_, default_isps()[3],
                                 default_snapshots()[0], config_, /*seed=*/2);
  std::size_t https = 0;
  for (const auto& record : exported.records) {
    EXPECT_LT(record.timestamp_s, 86400U);
    EXPECT_TRUE(record.protocol == 6 || record.protocol == 17);
    EXPECT_TRUE(record.dst_port == 443 || record.dst_port == 80);
    EXPECT_GT(record.packets, 0U);
    EXPECT_GT(record.bytes, 0U);
    if (record.dst_port == 443) ++https;
    // QUIC only rides on 443.
    if (record.protocol == 17) {
      EXPECT_EQ(record.dst_port, 443);
    }
  }
  // Small-sample binomial noise: ~185 records -> sd ~2.7pp.
  EXPECT_NEAR(static_cast<double>(https) / exported.records.size(), 0.834, 0.09);
}

TEST_F(NetflowPipeline, CollectorFiltersAndMatches) {
  const auto& isp = default_isps()[0];
  const auto exported =
      generate(*world_, *resolver_, isp, default_snapshots()[1], config_, /*seed=*/3);
  const auto index = all_tracker_ips(*world_);

  const auto result = collect(exported.records, index, isp);
  EXPECT_EQ(result.records_seen, exported.records.size());
  EXPECT_LT(result.internal_records, result.records_seen);  // peering filtered
  // All intended tracking flows (and nothing from the peering noise)
  // should match; clean-service flows should not.
  EXPECT_EQ(result.matched_records, exported.counts.tracking_intended);
  EXPECT_GT(result.per_ip.size(), 10U);
  std::uint64_t total = 0;
  for (const auto& [ip, count] : result.per_ip) {
    EXPECT_TRUE(index.contains(ip));
    total += count;
  }
  EXPECT_EQ(total, result.matched_records);
  EXPECT_GT(result.https_records, result.matched_records / 2);
}

TEST_F(NetflowPipeline, FlowsCarryTheIspCountry) {
  const auto& isp = default_isps()[2];  // PL
  const auto exported =
      generate(*world_, *resolver_, isp, default_snapshots()[0], config_, /*seed=*/4);
  const auto index = all_tracker_ips(*world_);
  const auto result = collect(exported.records, index, isp);
  const auto flows = result.flows("PL");
  std::uint64_t total = 0;
  for (const auto& flow : flows) {
    EXPECT_EQ(flow.origin_country, "PL");
    total += flow.weight;
  }
  EXPECT_EQ(total, result.matched_records);
}

TEST_F(NetflowPipeline, MobileIspsResolveMoreLocally) {
  // Mobile subscribers sit behind the ISP resolver, broadband leans on
  // third-party DNS: generate both flavors for the same country and
  // compare in-country termination (the paper's §7.3 observation).
  IspProfile broadband = default_isps()[0];
  IspProfile mobile = broadband;
  mobile.access = AccessType::Mobile;
  mobile.third_party_resolver_share = 0.05;
  broadband.third_party_resolver_share = 0.60;  // exaggerate for a small sample

  const auto count_local = [&](const IspProfile& isp) {
    const auto exported =
        generate(*world_, *resolver_, isp, default_snapshots()[1], config_, /*seed=*/5);
    std::uint64_t local = 0;
    std::uint64_t total = 0;
    for (const auto& record : exported.records) {
      if (!record.internal_interface) continue;
      const auto country = world_->true_country_of(record.dst);
      if (country.empty()) continue;
      ++total;
      if (country == isp.country) ++local;
    }
    return static_cast<double>(local) / static_cast<double>(total);
  };
  EXPECT_GT(count_local(mobile), count_local(broadband));
}

TEST_F(NetflowPipeline, StreamedDayEqualsCollectOverTheWholeSnapshot) {
  // collect_snapshot collects each generated batch as it arrives; the
  // reference materialises the snapshot and runs one serial collect()
  // over it. A plan live at every site (netflow_export drops by absolute
  // index, dns failures shape the records) must not tell them apart at
  // any pool size.
  const auto& isp = default_isps()[0];
  const auto& snapshot = default_snapshots()[1];
  GeneratorConfig config = config_;
  config.scale = 1e-5;  // ~10 generation shards, so many batches
  const auto plan = fault::FaultPlan::uniform(/*seed=*/31, /*rate=*/0.2);
  const auto index = all_tracker_ips(*world_);
  const auto exported = generate(*world_, *resolver_, isp, snapshot, config, /*seed=*/6, &plan);
  const auto ref =
      collect(exported.records, index, isp,
              fault::StageSite::resolve(&plan, fault::sites::kNetflowExport, nullptr));
  ASSERT_GT(ref.dropped_records, 0U);
  ASSERT_GT(ref.matched_records, 0U);

  for (const unsigned threads : {0U, 2U, 8U}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::unique_ptr<runtime::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<runtime::ThreadPool>(threads);
    obs::Registry registry;
    const auto got = collect_snapshot(*world_, *resolver_, isp, snapshot, config,
                                      /*seed=*/6, index, pool.get(), &registry, &plan);
    EXPECT_EQ(got.records_seen, ref.records_seen);
    EXPECT_EQ(got.internal_records, ref.internal_records);
    EXPECT_EQ(got.matched_records, ref.matched_records);
    EXPECT_EQ(got.https_records, ref.https_records);
    EXPECT_EQ(got.udp_records, ref.udp_records);
    EXPECT_EQ(got.dropped_records, ref.dropped_records);
    EXPECT_EQ(got.per_ip, ref.per_ip);

    EXPECT_EQ(registry.counter_value("cbwt_netflow_records_collected_total"),
              ref.records_seen);
    EXPECT_EQ(registry.counter_value("cbwt_netflow_internal_total"), ref.internal_records);
    EXPECT_EQ(registry.counter_value("cbwt_netflow_matched_total"), ref.matched_records);
    EXPECT_EQ(registry.counter_value("cbwt_fault_netflow_export_degraded_total"),
              ref.dropped_records);
    // Generation runs inside the collect span.
    bool nested = false;
    for (const auto& span : registry.spans()) {
      if (span.name == "netflow/generate") nested = span.parent == "netflow/collect";
    }
    EXPECT_TRUE(nested);
  }
}

TEST_F(NetflowPipeline, SflowHostVisibilityFollowsTransport) {
  util::Rng rng(11);
  GeneratorConfig traffic;
  traffic.scale = 4e-6;
  const auto exported = generate_sflow_snapshot(*world_, *resolver_, default_isps()[0],
                                                default_snapshots()[1], traffic,
                                                SflowConfig{}, rng);
  ASSERT_GT(exported.samples.size(), 1000U);
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> by_kind;  // kind -> (visible, total)
  for (const auto& sample : exported.samples) {
    const int kind = sample.dst_port == 80 ? 0 : (sample.protocol == 17 ? 2 : 1);
    auto& [visible, total] = by_kind[kind];
    ++total;
    visible += sample.visible_host.empty() ? 0 : 1;
    if (!sample.visible_host.empty()) {
      EXPECT_EQ(sample.visible_host, world_->domain(sample.true_domain).fqdn);
    }
  }
  const auto rate = [&](int kind) {
    const auto& [visible, total] = by_kind[kind];
    return total == 0 ? 0.0 : static_cast<double>(visible) / static_cast<double>(total);
  };
  EXPECT_GT(rate(0), 0.85);          // plaintext HTTP: Host nearly always seen
  EXPECT_GT(rate(0), rate(1));       // TLS hides most
  EXPECT_GT(rate(1), rate(2));       // QUIC hides almost everything
  EXPECT_LT(rate(2), 0.2);
}

TEST_F(NetflowPipeline, IpJoinOutRecallsHostJoin) {
  util::Rng rng(13);
  GeneratorConfig traffic;
  traffic.scale = 4e-6;
  const auto exported = generate_sflow_snapshot(*world_, *resolver_, default_isps()[0],
                                                default_snapshots()[1], traffic,
                                                SflowConfig{}, rng);
  TrackerIpIndex trackers;
  std::set<std::string> registrable_set;
  for (const auto id : world_->tracking_domain_ids()) {
    registrable_set.insert(world_->domain(id).registrable);
    for (const auto sid : world_->domain(id).servers) {
      trackers.add(world_->server(sid).ip);
    }
  }
  const std::vector<std::string> registrables(registrable_set.begin(),
                                              registrable_set.end());
  const auto comparison = compare_matchers(*world_, exported, registrables, trackers);
  ASSERT_GT(comparison.tracking_samples, 1000U);
  EXPECT_GT(comparison.ip_recall(), 0.95);          // protocol-agnostic join
  EXPECT_LT(comparison.host_recall(), 0.70);        // capped by handshake visibility
  EXPECT_GT(comparison.host_recall(), 0.20);
  EXPECT_EQ(comparison.false_ip_matches, 0U);
  EXPECT_EQ(comparison.false_host_matches, 0U);
}

// ------------------------------------------------------ wire format
// Edge cases mirror fuzz/fuzz_netflow_record.cpp and its seed corpus
// (fuzz/corpus/netflow); keep in sync when new crashers are minimized.

RawRecord sample_record() {
  RawRecord record;
  record.timestamp_s = 3600;
  record.router = 2;
  record.interface = 1;
  record.internal_interface = true;
  record.protocol = 6;
  record.src = net::IpAddress::v4(0xC0000201);
  record.dst = net::IpAddress::v4(0xCB007101);
  record.src_port = 41234;
  record.dst_port = 443;
  record.packets = 12;
  record.bytes = 9000;
  record.tos = 0;
  return record;
}

TEST(Wire, RecordRoundTripV4) {
  const RawRecord record = sample_record();
  const auto bytes = encode_record(record);
  ASSERT_EQ(bytes.size(), kWireRecordSize);
  const auto parsed = parse_record(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->timestamp_s, record.timestamp_s);
  EXPECT_EQ(parsed->router, record.router);
  EXPECT_EQ(parsed->interface, record.interface);
  EXPECT_EQ(parsed->internal_interface, record.internal_interface);
  EXPECT_EQ(parsed->protocol, record.protocol);
  EXPECT_EQ(parsed->src, record.src);
  EXPECT_EQ(parsed->dst, record.dst);
  EXPECT_EQ(parsed->src_port, record.src_port);
  EXPECT_EQ(parsed->dst_port, record.dst_port);
  EXPECT_EQ(parsed->packets, record.packets);
  EXPECT_EQ(parsed->bytes, record.bytes);
  EXPECT_EQ(encode_record(*parsed), bytes);
}

TEST(Wire, GoldenBytesPinTheLayout) {
  // The exact serialized bytes of sample_record(), written out by hand
  // from the layout table in wire.cpp. This is the regression tripwire
  // for the on-disk store format: any codec change that alters these
  // bytes silently invalidates every existing store file and must bump
  // store::kFormatVersion instead. The encoding is big-endian by
  // byte-shift construction, so this test passes unchanged on little-
  // and big-endian hosts.
  const std::vector<std::uint8_t> golden = {
      0x00, 0x00, 0x0E, 0x10,                          // timestamp_s = 3600
      0x00, 0x02,                                      // router = 2
      0x00, 0x01,                                      // interface = 1
      0x01,                                            // flags: internal
      0x06,                                            // protocol = TCP
      0x04,                                            // src family = v4
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // src hi
      0x00, 0x00, 0x00, 0x00, 0xC0, 0x00, 0x02, 0x01,  // src lo = 192.0.2.1
      0x04,                                            // dst family = v4
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // dst hi
      0x00, 0x00, 0x00, 0x00, 0xCB, 0x00, 0x71, 0x01,  // dst lo = 203.0.113.1
      0xA1, 0x12,                                      // src_port = 41234
      0x01, 0xBB,                                      // dst_port = 443
      0x00, 0x00, 0x00, 0x0C,                          // packets = 12
      0x00, 0x00, 0x23, 0x28,                          // bytes = 9000
      0x00,                                            // tos
  };
  ASSERT_EQ(golden.size(), kWireRecordSize);
  EXPECT_EQ(encode_record(sample_record()), golden);
  // encode_record_into (the store's allocation-free path) must emit the
  // identical bytes.
  std::vector<std::uint8_t> direct(kWireRecordSize);
  encode_record_into(sample_record(), direct.data());
  EXPECT_EQ(direct, golden);
  const auto parsed = parse_record(golden);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, sample_record());
}

TEST(Wire, RecordRoundTripV6) {
  RawRecord record = sample_record();
  record.src = net::IpAddress::v6(0x20010DB800000000ULL, 1);
  record.dst = net::IpAddress::v6(0x20010DB800000000ULL, 2);
  record.protocol = 17;
  const auto bytes = encode_record(record);
  const auto parsed = parse_record(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, record.src);
  EXPECT_EQ(parsed->dst, record.dst);
}

TEST(Wire, EmptyInputRejected) {
  EXPECT_FALSE(parse_record({}).has_value());
}

TEST(Wire, TruncatedRecordRejected) {
  const auto bytes = encode_record(sample_record());
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{20},
                                kWireRecordSize - 1}) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_FALSE(parse_record(prefix).has_value()) << cut;
  }
  // One trailing byte is equally malformed.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(parse_record(padded).has_value());
}

TEST(Wire, BadAddressFamilyRejected) {
  auto bytes = encode_record(sample_record());
  bytes[10] = 9;  // src family tag
  EXPECT_FALSE(parse_record(bytes).has_value());
}

TEST(Wire, DirtyHighBitsInV4Rejected) {
  auto bytes = encode_record(sample_record());
  bytes[11] = 0xFF;  // hi bits of a v4 source must be zero
  EXPECT_FALSE(parse_record(bytes).has_value());
}

TEST(Wire, ReservedFlagBitsRejected) {
  auto bytes = encode_record(sample_record());
  bytes[8] |= 0x80;
  EXPECT_FALSE(parse_record(bytes).has_value());
}

}  // namespace
}  // namespace cbwt::netflow
