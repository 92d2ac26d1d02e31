// google-benchmark microbenchmarks of the pipeline's hot paths: filter
// matching, longest-prefix lookup, DNS server selection, pDNS
// replication, NetFlow collection against the tracker-IP list, saving
// and resuming a panel
// checkpoint, the geolocated analysis tail (what-if load, confinement),
// and the cbwt::runtime sharded stages (classification,
// active-geolocation panels, snapshot generation) swept over pool sizes.
//
// Flags beyond google-benchmark's own: `--threads N` sets the largest
// pool size in the sweep (0 = hardware cores), `--json PATH` is a
// shorthand for --benchmark_out=PATH --benchmark_out_format=json.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/study.h"
#include "filterlist/generate.h"
#include "filterlist/reference.h"
#include "net/prefix_trie.h"
#include "netflow/collector.h"
#include "netflow/generator.h"
#include "netflow/profile.h"
#include "pdns/replication.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace {

using namespace cbwt;

const world::World& micro_world() {
  static const world::World world = [] {
    world::WorldConfig config;
    config.seed = 77;
    config.scale = 0.01;
    return world::build_world(config);
  }();
  return world;
}

/// DE-Broadband's first snapshot, generated into `records` (cleared
/// first; its capacity is kept).
void snapshot_records(const world::World& world, const dns::Resolver& resolver,
                      const netflow::GeneratorConfig& config, std::uint64_t seed,
                      runtime::ThreadPool* pool, std::vector<netflow::RawRecord>& records) {
  records.clear();
  (void)netflow::generate_snapshot_stream(
      world, resolver, netflow::default_isps()[0], netflow::default_snapshots()[0], config,
      seed, pool, [&records](std::span<const netflow::RawRecord> batch) {
        records.insert(records.end(), batch.begin(), batch.end());
      });
}

void BM_FilterEngineMatch(benchmark::State& state) {
  const auto& world = micro_world();
  util::Rng rng(1);
  const auto lists = filterlist::generate_lists(world, rng);
  filterlist::Engine engine;
  engine.add_list(filterlist::FilterList("easylist", lists.easylist));
  engine.add_list(filterlist::FilterList("easyprivacy", lists.easyprivacy));

  // A mixed probe set: listed trackers, chained endpoints, clean hosts.
  std::vector<std::string> urls;
  for (const auto& domain : world.domains()) {
    urls.push_back("https://" + domain.fqdn + "/ads/display/1?pub=x.com&ad_slot=2");
    if (urls.size() >= 512) break;
  }
  std::size_t i = 0;
  std::size_t matched = 0;
  for (auto _ : state) {
    const auto& url = urls[i++ % urls.size()];
    filterlist::RequestContext context;
    context.url = url;
    context.host = std::string_view(url).substr(8, url.find('/', 8) - 8);
    context.page_host = "news.example.com";
    matched += engine.match(context).matched ? 1 : 0;
  }
  benchmark::DoNotOptimize(matched);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FilterEngineMatch);

// --- engine variants over one shared corpus --------------------------
// Naive = ReferenceEngine (the pre-optimization matcher, kept as the
// executable spec), Indexed = the token-indexed Engine. Same lists, same
// probe mix, so the two are directly comparable.

struct EngineCorpus {
  filterlist::Engine indexed;
  filterlist::ReferenceEngine naive;
  std::vector<std::string> urls;
  std::vector<std::string> hosts;
};

/// Generic (non-host-anchored) path/substring rules at roughly real
/// easylist's generic share. The world's generated lists are almost
/// entirely ||host^ rules, which the old engine already indexed — the
/// linear-scan pressure real lists put on it comes from rules like
/// these, so the engine comparison must include them.
std::vector<std::string> generic_rules() {
  static constexpr std::string_view kWords[] = {
      "widget", "player", "render", "metrics", "social",   "video",
      "embed",  "chat",   "badge",  "share",   "button",   "icon",
      "menu",   "layer",  "popup",  "modal",   "theme",    "font",
      "style",  "script", "frame",  "slide",   "gallery",  "carousel",
      "signup", "login",  "avatar", "emoji",   "sticker",  "poll",
      "quiz",   "vote"};
  util::Rng rng(9);
  const auto word = [&] { return std::string(kWords[rng.next_below(std::size(kWords))]); };
  // open + word + mid + word + close, appended rather than built with a
  // one-char literal + std::string (GCC 12 -O3 -Werror=restrict false
  // positive). The second word is drawn first, the order GCC evaluated
  // the earlier one-expression form in, so the rule set is unchanged.
  const auto rule = [&](char open, char mid, char close) {
    const std::string second = word();
    const std::string first = word();
    std::string out(1, open);
    out.append(first).append(1, mid).append(second).append(1, close);
    return out;
  };
  std::vector<std::string> rules;
  for (int i = 0; i < 1024; ++i) {
    switch (rng.next_below(4)) {
      case 0: rules.push_back(rule('/', '/', '/')); break;
      case 1: rules.push_back(rule('-', '-', '.')); break;
      case 2: rules.push_back(rule('&', '_', '=')); break;
      default: rules.push_back(rule('_', '-', '.')); break;
    }
  }
  for (int i = 0; i < 64; ++i) {
    rules.push_back("@@/" + word() + "/" + word() + "?");
  }
  return rules;
}

const EngineCorpus& engine_corpus() {
  static const EngineCorpus corpus = [] {
    EngineCorpus built;
    const auto& world = micro_world();
    util::Rng rng(1);
    const auto lists = filterlist::generate_lists(world, rng);
    const auto generic = generic_rules();
    built.indexed.add_list(filterlist::FilterList("easylist", lists.easylist));
    built.indexed.add_list(filterlist::FilterList("easyprivacy", lists.easyprivacy));
    built.indexed.add_list(filterlist::FilterList("generic", generic));
    built.naive.add_list(filterlist::FilterList("easylist", lists.easylist));
    built.naive.add_list(filterlist::FilterList("easyprivacy", lists.easyprivacy));
    built.naive.add_list(filterlist::FilterList("generic", generic));
    // Mixed probes: listed trackers, chained endpoints, clean hosts —
    // alternating URL shapes so hits and misses both stay represented.
    for (const auto& domain : world.domains()) {
      const bool query = built.urls.size() % 2 == 0;
      built.urls.push_back("https://" + domain.fqdn +
                           (query ? "/ads/display/1?pub=x.com&ad_slot=2"
                                  : "/assets/app.js"));
      built.hosts.push_back(domain.fqdn);
      if (built.urls.size() >= 512) break;
    }
    return built;
  }();
  return corpus;
}

filterlist::RequestContext corpus_context(const EngineCorpus& corpus, std::size_t i) {
  filterlist::RequestContext context;
  context.url = corpus.urls[i];
  context.host = corpus.hosts[i];
  context.page_host = "news.example.com";
  context.third_party = true;
  return context;
}

void BM_EngineMatchNaive(benchmark::State& state) {
  const auto& corpus = engine_corpus();
  std::size_t i = 0;
  std::size_t matched = 0;
  for (auto _ : state) {
    const auto context = corpus_context(corpus, i++ % corpus.urls.size());
    matched += corpus.naive.match(context).matched ? 1 : 0;
  }
  benchmark::DoNotOptimize(matched);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineMatchNaive);

void BM_EngineMatchIndexed(benchmark::State& state) {
  const auto& corpus = engine_corpus();
  std::size_t i = 0;
  std::size_t matched = 0;
  for (auto _ : state) {
    const auto context = corpus_context(corpus, i++ % corpus.urls.size());
    matched += corpus.indexed.match(context).matched ? 1 : 0;
  }
  benchmark::DoNotOptimize(matched);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineMatchIndexed);

void BM_PrefixTrieLookup(benchmark::State& state) {
  net::PrefixTrie<int> trie;
  util::Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const auto base = net::IpAddress::v4(static_cast<std::uint32_t>(rng()));
    trie.insert(net::IpPrefix(base, static_cast<unsigned>(rng.next_in(8, 28))), i);
  }
  std::size_t hits = 0;
  for (auto _ : state) {
    const auto probe = net::IpAddress::v4(static_cast<std::uint32_t>(rng()));
    hits += trie.lookup(probe) != nullptr ? 1 : 0;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PrefixTrieLookup);

void BM_DnsResolve(benchmark::State& state) {
  const auto& world = micro_world();
  const dns::Resolver resolver(world);
  util::Rng rng(3);
  const auto tracking = world.tracking_domain_ids();
  const auto origin = resolver.origin_for("DE", false);
  std::size_t i = 0;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    const auto answer = resolver.resolve(tracking[i++ % tracking.size()], origin, rng);
    sum += answer.server;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DnsResolve);

/// Study::pdns_store()'s serial path at the default replication config:
/// 444 k background queries drawn into one batch, folded into an empty
/// store. Items are queries.
void BM_PdnsReplicate(benchmark::State& state) {
  const auto& world = micro_world();
  const dns::Resolver resolver(world);
  const pdns::ReplicationConfig config;
  std::size_t records = 0;
  for (auto _ : state) {
    pdns::Store store;
    util::Rng rng(9);
    pdns::replicate_background(store, resolver, config, rng);
    records = store.record_count();
    benchmark::DoNotOptimize(records);
  }
  const auto samples = (config.window_end - config.window_start) / config.sample_every + 1;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * samples *
                          config.queries_per_sample);
}
BENCHMARK(BM_PdnsReplicate)->Unit(benchmark::kMillisecond);

void BM_NetflowCollect(benchmark::State& state) {
  const auto& world = micro_world();
  const dns::Resolver resolver(world);
  netflow::GeneratorConfig config;
  config.scale = 1e-6;
  std::vector<netflow::RawRecord> records;
  snapshot_records(world, resolver, config, /*seed=*/4, nullptr, records);
  netflow::TrackerIpIndex index;
  for (const auto id : world.tracking_domain_ids()) {
    for (const auto sid : world.domain(id).servers) index.add(world.server(sid).ip);
  }
  for (auto _ : state) {
    const auto result = netflow::collect(records, index, netflow::default_isps()[0]);
    benchmark::DoNotOptimize(result.matched_records);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_NetflowCollect);

/// One locator throughout: once the popular focus probes' refinement
/// tables are built, this times the warm path.
void BM_ActiveGeolocate(benchmark::State& state) {
  const auto& world = micro_world();
  util::Rng mesh_rng(5);
  const geoloc::ProbeMesh mesh({}, mesh_rng);
  const geoloc::ActiveGeolocator locator(world, mesh);
  util::Rng rng(6);
  std::size_t i = 0;
  std::size_t non_empty = 0;
  for (auto _ : state) {
    const auto& server = world.servers()[i++ % world.servers().size()];
    non_empty += locator.locate(server.ip, rng).country.empty() ? 0 : 1;
  }
  benchmark::DoNotOptimize(non_empty);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ActiveGeolocate);

/// As BM_ActiveGeolocate, but a fresh locator every 1,000 IPs, so the
/// refinement tables are rebuilt at the rate a new study builds them.
void BM_ActiveGeolocateCold(benchmark::State& state) {
  const auto& world = micro_world();
  util::Rng mesh_rng(5);
  const geoloc::ProbeMesh mesh({}, mesh_rng);
  std::unique_ptr<geoloc::ActiveGeolocator> locator;
  util::Rng rng(6);
  std::size_t i = 0;
  std::size_t non_empty = 0;
  for (auto _ : state) {
    if (i % 1000 == 0) locator = std::make_unique<geoloc::ActiveGeolocator>(world, mesh);
    const auto& server = world.servers()[i++ % world.servers().size()];
    non_empty += locator->locate(server.ip, rng).country.empty() ? 0 : 1;
  }
  benchmark::DoNotOptimize(non_empty);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ActiveGeolocateCold);

// --- cbwt::runtime sharded stages -----------------------------------
// --- panel checkpoint ----------------------------------------------------
// The store layer's half of panel_reanalysis: Study::save_checkpoint of a
// scale-0.03 panel after pDNS replication (192 k requests, ~22 MB on
// disk), and the resume that reads it back into a fresh Study.

core::StudyConfig checkpoint_config() {
  core::StudyConfig config;
  config.world.seed = 1000;
  config.world.scale = 0.03;
  return config;
}

/// A per-process scratch directory holding one saved checkpoint.
const std::string& checkpoint_dir() {
  static const std::string dir = [] {
    const auto path = std::filesystem::temp_directory_path() /
                      ("cbwt_bench_checkpoint_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    return path.string();
  }();
  return dir;
}

core::Study& checkpoint_study() {
  static core::Study study(checkpoint_config());
  (void)study.pdns_store();
  return study;
}

void BM_CheckpointSave(benchmark::State& state) {
  auto& study = checkpoint_study();
  for (auto _ : state) study.save_checkpoint(checkpoint_dir());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(study.dataset().requests.size()));
}
BENCHMARK(BM_CheckpointSave)->Unit(benchmark::kMillisecond);

void BM_CheckpointLoad(benchmark::State& state) {
  checkpoint_study().save_checkpoint(checkpoint_dir());
  auto config = checkpoint_config();
  config.storage.resume_from = checkpoint_dir();
  std::size_t requests = 0;
  for (auto _ : state) {
    core::Study resumed(config);
    requests = resumed.dataset().requests.size();
    benchmark::DoNotOptimize(requests);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_CheckpointLoad)->Unit(benchmark::kMillisecond);

// --- geolocated analysis tail ------------------------------------------
// The what-if load (Study::localization) and the EU28 confinement of
// panel_reanalysis on the same scale-0.03 panel, with every destination's
// active verdict cached before the timed loop: the loop times the tail's
// own work, not measurement.

void BM_LocalizationLoad(benchmark::State& state) {
  auto& study = checkpoint_study();
  const auto& dataset = study.dataset();
  const auto& outcomes = study.outcomes();
  (void)study.localization();  // measures every EU28 destination once
  std::size_t flows = 0;
  for (auto _ : state) {
    whatif::LocalizationStudy localization(study.world(), study.geo(),
                                           geoloc::Tool::ActiveIpmap);
    localization.load(dataset, outcomes);
    flows = localization.flow_count();
    benchmark::DoNotOptimize(flows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_LocalizationLoad)->Unit(benchmark::kMillisecond);

void BM_FlowConfinement(benchmark::State& state) {
  auto& study = checkpoint_study();
  const auto eu_flows = analysis::flows_from_region(study.flows(), geo::Region::EU28);
  const auto analyzer = study.analyzer();
  (void)analyzer.confinement(eu_flows);  // measures every destination once
  for (auto _ : state) {
    const auto confinement = analyzer.confinement(eu_flows);
    benchmark::DoNotOptimize(confinement.in_eu28);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(eu_flows.size()));
}
BENCHMARK(BM_FlowConfinement)->Unit(benchmark::kMillisecond);

// Each benchmark takes the pool size as its argument (1 = the serial
// inline path, no pool object at all) and produces bit-identical results
// at every size; the sweep measures the speedup alone.

/// nullptr for one thread: the serial path must not even construct a pool.
runtime::ThreadPool* make_pool(std::int64_t threads,
                               std::unique_ptr<runtime::ThreadPool>& owner) {
  if (threads <= 1) return nullptr;
  owner = std::make_unique<runtime::ThreadPool>(static_cast<unsigned>(threads));
  return owner.get();
}

core::Study& micro_study() {
  static core::Study study([] {
    core::StudyConfig config;
    config.world.seed = 77;
    config.world.scale = 0.05;
    return config;
  }());
  return study;
}

void BM_ClassifyRun(benchmark::State& state) {
  auto& study = micro_study();
  const auto& dataset = study.dataset();
  const auto& classifier = study.classifier();
  std::unique_ptr<runtime::ThreadPool> owner;
  runtime::ThreadPool* pool = make_pool(state.range(0), owner);
  for (auto _ : state) {
    auto outcomes = classifier.run(dataset, pool);
    benchmark::DoNotOptimize(outcomes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dataset.requests.size()));
}

void BM_GeolocPanel(benchmark::State& state) {
  const auto& world = micro_world();
  util::Rng mesh_rng(5);
  const geoloc::ProbeMesh mesh({}, mesh_rng);
  const geoloc::ActiveGeolocator locator(world, mesh);
  std::vector<net::IpAddress> ips;
  for (const auto& server : world.servers()) {
    ips.push_back(server.ip);
    if (ips.size() >= 2048) break;
  }
  std::unique_ptr<runtime::ThreadPool> owner;
  runtime::ThreadPool* pool = make_pool(state.range(0), owner);
  for (auto _ : state) {
    // The GeoService::prefetch hot loop without its cache: one derived
    // RNG per IP, one probe panel per IP.
    std::vector<std::string> countries(ips.size());
    runtime::parallel_for(pool, ips.size(), {.min_shard_items = 8},
                          [&](runtime::ShardRange range, std::size_t /*shard*/) {
                            for (std::size_t i = range.begin; i < range.end; ++i) {
                              auto rng = util::Rng(util::mix64(0xAC7173ULL ^ ips[i].hash()));
                              countries[i] = locator.locate(ips[i], rng).country;
                            }
                          });
    benchmark::DoNotOptimize(countries.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ips.size()));
}

void BM_SnapshotSharded(benchmark::State& state) {
  const auto& world = micro_world();
  const dns::Resolver resolver(world);
  netflow::GeneratorConfig config;
  config.scale = 1e-4;
  std::unique_ptr<runtime::ThreadPool> owner;
  runtime::ThreadPool* pool = make_pool(state.range(0), owner);
  // One output buffer for every iteration: freeing and re-growing ~10 MB
  // per iteration would time the allocator handing pages back to the OS
  // and faulting them in again, which depends on the heap's layout.
  std::vector<netflow::RawRecord> exported;
  std::int64_t records = 0;
  for (auto _ : state) {
    snapshot_records(world, resolver, config, /*seed=*/42, pool, exported);
    records = static_cast<std::int64_t>(exported.size());
    benchmark::DoNotOptimize(exported.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * records);
}

void register_runtime_benchmarks(unsigned max_threads) {
  for (auto&& [name, fn] :
       {std::pair{"BM_ClassifyRun", &BM_ClassifyRun},
        std::pair{"BM_GeolocPanel", &BM_GeolocPanel},
        std::pair{"BM_SnapshotSharded", &BM_SnapshotSharded}}) {
    // Elapsed time, not the calling thread's CPU time: at /2 and /N the
    // pool workers do the work while the caller mostly waits.
    auto* bench = benchmark::RegisterBenchmark(name, fn);
    bench->Unit(benchmark::kMillisecond)->UseRealTime()->Arg(1);
    if (max_threads >= 2) bench->Arg(2);
    if (max_threads > 2) bench->Arg(static_cast<std::int64_t>(max_threads));
  }
}

}  // namespace

int main(int argc, char** argv) {
  unsigned max_threads =
      cbwt::bench::env_or<unsigned>("CBWT_THREADS", 0, cbwt::bench::kThreadCount);
  std::vector<std::string> owned;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      max_threads = cbwt::bench::parse_threads(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      owned.push_back(std::string("--benchmark_out=") + argv[++i]);
      owned.push_back("--benchmark_out_format=json");
    } else {
      args.push_back(argv[i]);
    }
  }
  for (auto& flag : owned) args.push_back(flag.data());
  if (max_threads == 0) max_threads = cbwt::runtime::ThreadPool::hardware_threads();
  register_runtime_benchmarks(max_threads);

  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::filesystem::remove_all(checkpoint_dir());
  return 0;
}
