#include "classify/classifier.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>

#include "net/domain.h"
#include "net/url.h"
#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "runtime/parallel.h"
#include "util/contract.h"
#include "util/prng.h"

namespace cbwt::classify {

namespace {

/// The in-memory identity hash of a URL (and of a request host): one
/// multiply-xorshift per 8-byte word, the last word loaded so that it
/// ends at the last byte (zero-padded below 8 bytes), and the length
/// folded into a splitmix finish. Each step is a bijection of the
/// state, so texts of one length that differ in one word never collide;
/// other collisions are 2^-64 events against ~10^5 distinct URLs.
std::uint64_t hash_url(std::string_view url) noexcept {
  constexpr std::uint64_t kMultiplier = 0x9E3779B97F4A7C15ULL;
  const auto fold = [](std::uint64_t state, std::uint64_t word) noexcept {
    state = (state ^ word) * kMultiplier;
    return state ^ (state >> 32);
  };
  const char* bytes = url.data();
  const std::size_t size = url.size();
  std::uint64_t state = 0;
  std::uint64_t word = 0;
  if (size < 8) {
    if (size > 0) std::memcpy(&word, bytes, size);
    state = fold(state, word);
  } else {
    std::size_t offset = 0;
    for (; offset + 8 < size; offset += 8) {
      std::memcpy(&word, bytes + offset, 8);
      state = fold(state, word);
    }
    std::memcpy(&word, bytes + size - 8, 8);
    state = fold(state, word);
  }
  return util::mix64(state ^ size);
}

std::string_view host_of(std::string_view url) noexcept {
  const std::size_t scheme = url.find("://");
  if (scheme == std::string_view::npos) return {};
  const std::size_t start = scheme + 3;
  std::size_t end = url.find('/', start);
  if (end == std::string_view::npos) end = url.size();
  return url.substr(start, end - start);
}

bool url_has_arguments(std::string_view url) noexcept {
  const std::size_t q = url.find('?');
  return q != std::string_view::npos && q + 1 < url.size();
}

/// True when some non-empty '&'-separated pair of `query` has a key
/// (the text before its first '=') equal to one of `keywords`: the test
/// Url::arguments() followed by a key comparison makes, without
/// materialising the pairs.
bool has_keyword_key(std::string_view query,
                     const std::vector<std::string>& keywords) noexcept {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view{} : query.substr(amp + 1);
    if (pair.empty()) continue;
    const std::string_view key = pair.substr(0, pair.find('='));
    for (const auto& keyword : keywords) {
      if (key == keyword) return true;
    }
  }
  return false;
}

/// The LTF identity set: `hash_url` values in one flat open-addressing
/// table (linear probing), sized once for at most `capacity` inserts so
/// that it stays at most half full. Slot value 0 marks an empty slot,
/// so a real hash 0 lives in a flag.
class UrlHashSet {
 public:
  explicit UrlHashSet(std::size_t capacity)
      : capacity_(capacity),
        slots_(std::bit_ceil(std::max<std::size_t>(2 * capacity, 1024)), 0) {}

  [[nodiscard]] bool contains(std::uint64_t hash) const noexcept {
    if (hash == 0) return has_zero_;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t index = hash & mask;; index = (index + 1) & mask) {
      if (slots_[index] == hash) return true;
      if (slots_[index] == 0) return false;
    }
  }

  void insert(std::uint64_t hash) {
    if (hash == 0) {
      has_zero_ = true;
      return;
    }
    CBWT_EXPECTS(inserts_ < capacity_);
    ++inserts_;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t index = hash & mask;; index = (index + 1) & mask) {
      if (slots_[index] == hash) return;
      if (slots_[index] == 0) {
        slots_[index] = hash;
        return;
      }
    }
  }

 private:
  std::size_t capacity_ = 0;
  std::size_t inserts_ = 0;
  std::vector<std::uint64_t> slots_;
  bool has_zero_ = false;
};

/// Stage 1's host part: each distinct request host once, with its
/// filter-engine plan, and every request's host slot. Built before
/// stage 1's shards start and only read while they run.
class HostTable {
 public:
  HostTable(const filterlist::Engine& engine,
            const std::vector<browser::ThirdPartyRequest>& requests) {
    slot_of_.reserve(requests.size());
    for (const auto& request : requests) {
      slot_of_.push_back(slot(engine, host_of(request.url)));
    }
  }

  [[nodiscard]] std::string_view host(std::size_t request) const noexcept {
    return hosts_[slot_of_[request]];
  }
  [[nodiscard]] const filterlist::HostPlan& plan(std::size_t request) const noexcept {
    return plans_[slot_of_[request]];
  }

 private:
  /// The slot of `host`, which gets its plan on first sight.
  std::uint32_t slot(const filterlist::Engine& engine, std::string_view host) {
    const std::uint64_t hash = hash_url(host);
    const std::size_t at = find(hash, host);
    if (index_[at] != 0) return index_[at] - 1;
    const auto added = static_cast<std::uint32_t>(hosts_.size());
    hosts_.push_back(host);
    hashes_.push_back(hash);
    plans_.push_back(engine.plan_host(host));
    index_[at] = added + 1;
    if (hosts_.size() * 2 > index_.size()) {
      index_.assign(index_.size() * 2, 0);
      for (std::uint32_t placed = 0; placed < hosts_.size(); ++placed) {
        index_[find(hashes_[placed], hosts_[placed])] = placed + 1;
      }
    }
    return added;
  }

  /// Where `host` sits in index_, or the empty entry where it would go.
  [[nodiscard]] std::size_t find(std::uint64_t hash, std::string_view host) const noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t at = hash & mask;
    while (index_[at] != 0 && hosts_[index_[at] - 1] != host) at = (at + 1) & mask;
    return at;
  }

  std::vector<std::string_view> hosts_;
  std::vector<std::uint64_t> hashes_;  ///< hash_url of each host
  std::vector<filterlist::HostPlan> plans_;
  std::vector<std::uint32_t> slot_of_;  ///< per request, into the vectors above
  /// Open addressing over slot + 1 (0 = empty), kept at most half full.
  std::vector<std::uint32_t> index_ = std::vector<std::uint32_t>(1024, 0);
};

/// A stage-2 candidate: an unlabelled request with URL arguments and a
/// referrer, and that referrer's `hash_url`.
struct Candidate {
  std::size_t index = 0;
  std::uint64_t referrer_hash = 0;
};

/// What one stage-1 shard hands back for stage 2, in index order (both
/// empty when stage 2 is off).
struct Stage1Part {
  std::vector<std::uint64_t> hits;     ///< hash_url of each listed URL
  std::vector<Candidate> candidates;
};

}  // namespace

std::string_view to_string(Method method) noexcept {
  switch (method) {
    case Method::None: return "none";
    case Method::AbpList: return "abp-list";
    case Method::Referrer: return "semi-referrer";
    case Method::Keyword: return "semi-keyword";
  }
  return "?";
}

Classifier::Classifier(filterlist::Engine engine, ClassifierConfig config)
    : engine_(std::move(engine)), config_(std::move(config)) {}

std::vector<Outcome> Classifier::run(const browser::ExtensionDataset& dataset,
                                     runtime::ThreadPool* pool,
                                     obs::Registry* registry) const {
  const auto& requests = dataset.requests;
  CBWT_EXPECTS(config_.max_iterations > 0 || !config_.enable_referrer_stage);
  std::vector<Outcome> outcomes(requests.size());

  // Claim-window throughput of the sharded stage, surfaced after the run.
  runtime::ChannelStats channel_stats;

  // ---- Stage 1: filter lists --------------------------------------
  // Request-local: each shard writes its own outcome slots and returns,
  // for stage 2, the URL hashes it classified and its unlabelled
  // requests that could be promoted. Parts land in shard order, so the
  // shards' candidate lists, read in turn, are in index order; they stay
  // one list per shard rather than one concatenated copy. LTF identity:
  // hashes of classified tracking URLs. Referrers of chained requests
  // carry the full parent URL, so exact identity suffices. Each distinct
  // host's engine plan is built once, before the shards start, so the
  // shards only read the host table.
  const bool referrer_stage = config_.enable_referrer_stage;
  std::vector<std::vector<std::uint64_t>> hits;
  std::size_t hit_count = 0;
  std::vector<std::vector<Candidate>> candidates;
  std::size_t candidate_count = 0;
  {
    obs::ScopedSpan span(registry, "classify/stage1_abp");
    span.set_items(requests.size());
    const HostTable host_table(engine_, requests);
    runtime::ordered_stream(
        pool, requests.size(), {.channel_stats = &channel_stats},
        [&](runtime::ShardRange range, std::size_t shard) {
          obs::ScopedTrace trace(registry, "classify/stage1/shard", shard);
          Stage1Part part;
          for (std::size_t i = range.begin; i < range.end; ++i) {
            const auto& request = requests[i];
            const std::string_view host = host_table.host(i);
            const std::string_view referrer_host = host_of(request.referrer);
            filterlist::RequestContext context;
            context.url = request.url;
            context.host = host;
            // Defensive: collection always sets the referrer.
            context.page_host = referrer_host.empty() ? host : referrer_host;
            context.third_party = true;
            const filterlist::MatchResult hit = engine_.match(context, host_table.plan(i));
            if (hit.matched) {
              outcomes[i] = {Method::AbpList, hit.list};
              if (referrer_stage) part.hits.push_back(hash_url(request.url));
            } else if (referrer_stage && !request.referrer.empty() &&
                       url_has_arguments(request.url)) {
              part.candidates.push_back({i, hash_url(request.referrer)});
            }
          }
          return part;
        },
        [&](std::size_t /*shard*/, Stage1Part&& part) {
          hit_count += part.hits.size();
          hits.push_back(std::move(part.hits));
          candidate_count += part.candidates.size();
          candidates.push_back(std::move(part.candidates));
        });
  }
  // Every LTF insert is a stage-1 hit or a stage-2 promotion, and each
  // candidate is promoted at most once.
  UrlHashSet ltf_urls(hit_count + candidate_count);
  for (const auto& part : hits) {
    for (const std::uint64_t hash : part) ltf_urls.insert(hash);
  }
  hits.clear();

  // ---- Stage 2: referrer chaining to fixpoint ----------------------
  // Each pass walks only the candidates still unpromoted, in index
  // order, and compacts the lists as it goes. A promotion is visible to
  // later candidates of the same pass, so the fixpoint and what the
  // max_iterations cap cuts off are those of a full index-order sweep.
  std::uint64_t referrer_passes = 0;
  if (referrer_stage) {
    obs::ScopedSpan span(registry, "classify/stage2_referrer");
    span.set_items(candidate_count);
    bool changed = true;
    while (changed && referrer_passes < config_.max_iterations) {
      ++referrer_passes;
      changed = false;
      for (auto& list : candidates) {
        std::size_t kept = 0;
        for (const Candidate& candidate : list) {
          if (ltf_urls.contains(candidate.referrer_hash)) {
            outcomes[candidate.index] = {Method::Referrer, {}};
            ltf_urls.insert(hash_url(requests[candidate.index].url));
            changed = true;
          } else {
            list[kept++] = candidate;
          }
        }
        list.resize(kept);
      }
    }
  }

  // ---- Stage 3: argument keywords ----------------------------------
  // Also request-local: nothing downstream reads the LTF set, so shards
  // only write their own outcome slots. Keys are scanned in place in
  // the query Url::parse would keep; a parse runs only on a keyword
  // hit, to confirm the URL is valid.
  if (config_.enable_keyword_stage) {
    obs::ScopedSpan span(registry, "classify/stage3_keyword");
    span.set_items(requests.size());
    runtime::parallel_for(pool, requests.size(), {},
                          [&](runtime::ShardRange range, std::size_t shard) {
      obs::ScopedTrace trace(registry, "classify/stage3/shard", shard);
      for (std::size_t i = range.begin; i < range.end; ++i) {
        if (outcomes[i].method != Method::None) continue;
        const std::string_view url = requests[i].url;
        if (has_keyword_key(net::query_of(url), config_.keywords) &&
            net::Url::parse(url)) {
          outcomes[i] = {Method::Keyword, {}};
        }
      }
    });
  }

  // The Table 2 breakdown, live: one extra O(n) scan, only when someone
  // is watching. Purely observational — outcomes are already final.
  if (registry != nullptr) {
    std::uint64_t rule_hits = 0;
    std::uint64_t referrer_promotions = 0;
    std::uint64_t keyword_promotions = 0;
    for (const auto& outcome : outcomes) {
      switch (outcome.method) {
        case Method::AbpList: ++rule_hits; break;
        case Method::Referrer: ++referrer_promotions; break;
        case Method::Keyword: ++keyword_promotions; break;
        case Method::None: break;
      }
    }
    registry->counter("cbwt_classify_requests_total").add(requests.size());
    registry->counter("cbwt_classify_rule_hits_total").add(rule_hits);
    registry->counter("cbwt_classify_referrer_promotions_total")
        .add(referrer_promotions);
    registry->counter("cbwt_classify_referrer_passes_total").add(referrer_passes);
    registry->counter("cbwt_classify_keyword_promotions_total").add(keyword_promotions);
    obs::record_channel_stats(registry, channel_stats);
  }

  return outcomes;
}

ClassificationSummary summarize(const browser::ExtensionDataset& dataset,
                                const std::vector<Outcome>& outcomes) {
  CBWT_EXPECTS(outcomes.size() == dataset.requests.size());
  ClassificationSummary summary;
  struct Sets {
    std::unordered_set<std::string_view> fqdns;
    std::unordered_set<std::string_view> registrables;
    std::unordered_set<std::uint64_t> urls;
  };
  Sets abp_sets;
  Sets semi_sets;
  Sets total_sets;

  for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
    const auto& request = dataset.requests[i];
    const Method method = outcomes[i].method;
    if (!is_tracking(method)) {
      ++summary.untracked_requests;
      continue;
    }
    const std::string_view host = host_of(request.url);
    const std::string_view registrable = net::registrable_domain(host);
    const std::uint64_t url_hash = hash_url(request.url);

    Sets& sets = method == Method::AbpList ? abp_sets : semi_sets;
    StageStats& stats = method == Method::AbpList ? summary.abp : summary.semi;
    ++stats.total_requests;
    sets.fqdns.insert(host);
    sets.registrables.insert(registrable);
    sets.urls.insert(url_hash);

    ++summary.total.total_requests;
    total_sets.fqdns.insert(host);
    total_sets.registrables.insert(registrable);
    total_sets.urls.insert(url_hash);
  }

  const auto fill = [](StageStats& stats, const Sets& sets) {
    stats.fqdns = sets.fqdns.size();
    stats.registrables = sets.registrables.size();
    stats.unique_urls = sets.urls.size();
  };
  fill(summary.abp, abp_sets);
  fill(summary.semi, semi_sets);
  fill(summary.total, total_sets);
  return summary;
}

double Score::precision() const noexcept {
  const auto denom = true_positives + false_positives;
  return denom == 0 ? 0.0 : static_cast<double>(true_positives) / static_cast<double>(denom);
}

double Score::recall() const noexcept {
  const auto denom = true_positives + false_negatives;
  return denom == 0 ? 0.0 : static_cast<double>(true_positives) / static_cast<double>(denom);
}

Score score_against_truth(const world::World& world,
                          const browser::ExtensionDataset& dataset,
                          const std::vector<Outcome>& outcomes) {
  CBWT_EXPECTS(outcomes.size() == dataset.requests.size());
  Score score;
  for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
    const auto& request = dataset.requests[i];
    const bool truly_tracking =
        world.org(world.domain(request.domain).org).role != world::OrgRole::CleanService;
    const bool flagged = is_tracking(outcomes[i].method);
    if (truly_tracking && flagged) ++score.true_positives;
    else if (truly_tracking) ++score.false_negatives;
    else if (flagged) ++score.false_positives;
    else ++score.true_negatives;
  }
  return score;
}

}  // namespace cbwt::classify
