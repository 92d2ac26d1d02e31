#include "classify/classifier.h"

#include <unordered_set>

#include "net/domain.h"
#include "net/url.h"
#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "runtime/parallel.h"
#include "util/contract.h"
#include "util/fnv1a.h"
#include "util/prng.h"

namespace cbwt::classify {

namespace {

/// Cheap stable hash for URL-identity sets (collision odds are
/// negligible against dataset sizes here).
std::uint64_t hash_url(std::string_view url) noexcept {
  return util::mix64(util::fnv1a(url));
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

  // LTF identity: hashes of classified tracking URLs. Referrers of chained
  // requests carry the full parent URL, so exact identity suffices.
  std::unordered_set<std::uint64_t> ltf_urls;
  ltf_urls.reserve(requests.size() / 2);

  // Claim-window throughput of the sharded stages, surfaced after the run.
  runtime::ChannelStats channel_stats;

  // ---- Stage 1: filter lists --------------------------------------
  // Request-local: each shard writes its own outcome slots and returns
  // the URL hashes it classified; hashes land in the LTF set in shard
  // order (set membership is order-free anyway).
  {
    obs::ScopedSpan span(registry, "classify/stage1_abp");
    span.set_items(requests.size());
    runtime::ordered_stream(
        pool, requests.size(), {.channel_stats = &channel_stats},
        [&](runtime::ShardRange range, std::size_t shard) {
          obs::ScopedTrace trace(registry, "classify/stage1/shard", shard);
          std::unordered_set<std::uint64_t> local;
          for (std::size_t i = range.begin; i < range.end; ++i) {
            const auto& request = requests[i];
            const std::string_view host = host_of(request.url);
            const std::string_view page_host = host_of(request.referrer).empty()
                                                   ? host  // defensive; referrer always set
                                                   : host_of(request.referrer);
            filterlist::RequestContext context;
            context.url = request.url;
            context.host = host;
            context.page_host = page_host;
            context.third_party = true;
            const filterlist::MatchResult hit = engine_.match(context);
            if (hit.matched) {
              outcomes[i] = {Method::AbpList, hit.list};
              local.insert(hash_url(request.url));
            }
          }
          return local;
        },
        [&](std::size_t /*shard*/, std::unordered_set<std::uint64_t>&& part) {
          ltf_urls.merge(part);
        });
  }

  // ---- Stage 2: referrer chaining to fixpoint ----------------------
  if (config_.enable_referrer_stage) {
    obs::ScopedSpan span(registry, "classify/stage2_referrer");
    span.set_items(requests.size());
    bool changed = true;
    for (std::size_t pass = 0; changed && pass < config_.max_iterations; ++pass) {
      changed = false;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (outcomes[i].method != Method::None) continue;
        const auto& request = requests[i];
        if (!url_has_arguments(request.url)) continue;
        if (request.referrer.empty()) continue;
        if (ltf_urls.contains(hash_url(request.referrer))) {
          outcomes[i] = {Method::Referrer, {}};
          ltf_urls.insert(hash_url(request.url));
          changed = true;
        }
      }
    }
  }

  // ---- Stage 3: argument keywords ----------------------------------
  // Also request-local: nothing downstream reads the LTF set, so shards
  // only write their own outcome slots.
  if (config_.enable_keyword_stage) {
    obs::ScopedSpan span(registry, "classify/stage3_keyword");
    span.set_items(requests.size());
    runtime::parallel_for(pool, requests.size(), {},
                          [&](runtime::ShardRange range, std::size_t shard) {
      obs::ScopedTrace trace(registry, "classify/stage3/shard", shard);
      for (std::size_t i = range.begin; i < range.end; ++i) {
        if (outcomes[i].method != Method::None) continue;
        const auto& request = requests[i];
        if (!url_has_arguments(request.url)) continue;
        const auto url = net::Url::parse(request.url);
        if (!url) continue;
        for (const auto& [key, value] : url->arguments()) {
          bool hit = false;
          for (const auto& keyword : config_.keywords) {
            if (key == keyword) {
              hit = true;
              break;
            }
          }
          if (hit) {
            outcomes[i] = {Method::Keyword, {}};
            break;
          }
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
