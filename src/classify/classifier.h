// Tracking-flow classification, reproducing §3.2 of the paper:
//
//   Stage 1 ("ABP"):   match every third-party request against the
//                      easylist + easyprivacy engine -> LTF / NTF split.
//                      The engine's host part (filterlist::HostPlan) is
//                      worked out once per distinct request host. The
//                      LTF is kept as a set of URL hashes.
//   Stage 2 ("SEMI-referrer"): promote NTF requests whose referrer points
//                      into the LTF *and* whose URL carries arguments —
//                      these are the chained requests an ad blocker would
//                      have prevented from ever firing. Stage 1 hands over
//                      a worklist of such candidates (index + referrer
//                      hash, in index order, one list per stage-1 shard);
//                      each pass walks only the candidates still
//                      unpromoted and drops the ones it promotes, until a
//                      pass promotes nothing or max_iterations passes ran,
//                      so deep cookie-sync cascades are caught.
//   Stage 3 ("SEMI-keyword"): promote remaining NTF requests whose URL
//                      has arguments and a well-known tracking keyword
//                      (usermatch, cookiesync, rtb, ...) as a query key.
//                      Keys are scanned in place (net::query_of); only a
//                      hit pays for a full net::Url::parse.
//
// Ground truth from the world model is never consulted here; it is only
// used by tests and ablations to score the classifier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "browser/extension.h"
#include "filterlist/engine.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace cbwt::classify {

/// How a request ended up classified as a tracking flow.
enum class Method : std::uint8_t {
  None,      ///< not classified as tracking (stays in NTF)
  AbpList,   ///< stage 1: easylist/easyprivacy rule hit
  Referrer,  ///< stage 2: referrer chained into the LTF + URL arguments
  Keyword,   ///< stage 3: URL arguments + tracking keyword
};

[[nodiscard]] std::string_view to_string(Method method) noexcept;

/// True when the method marks a tracking flow.
[[nodiscard]] constexpr bool is_tracking(Method method) noexcept {
  return method != Method::None;
}

struct ClassifierConfig {
  bool enable_referrer_stage = true;
  bool enable_keyword_stage = true;
  /// Query-argument keys treated as tracking keywords (paper: built
  /// empirically; "usermatch", "rtb", "cookiesync", etc.).
  std::vector<std::string> keywords = {"usermatch", "cookiesync", "uid_sync",
                                       "idsync",    "cm",         "rtb"};
  /// Maximum fixpoint iterations of the referrer stage.
  std::size_t max_iterations = 6;
};

/// Per-request classification outcome, parallel to the dataset. `list`
/// views the engine-owned list name (no per-request allocation), so
/// outcomes must not outlive the classifier that produced them.
struct Outcome {
  Method method = Method::None;
  std::string_view list;  ///< matching list name for Method::AbpList
};

/// The classifier owns its engine (matching is the hot path, so the
/// engine is moved in rather than re-parsed per run).
class Classifier {
 public:
  Classifier(filterlist::Engine engine, ClassifierConfig config = {});

  /// Classifies every request of the dataset. Output[i] corresponds to
  /// dataset.requests[i].
  ///
  /// Stages 1 and 3 are request-local and shard across `pool` (the
  /// referrer fixpoint of stage 2 stays serial — its passes walk a
  /// shrinking worklist and are order-sensitive). Results are
  /// bit-identical for any pool size, including none.
  ///
  /// `registry` (optional) records one span per stage (stage 2's item
  /// count is its candidate count) plus the Table 2 breakdown counters
  /// (cbwt_classify_rule_hits_total, referrer / keyword promotions),
  /// cbwt_classify_referrer_passes_total and stage 1's claim-window
  /// throughput. Instrumentation never affects the outcomes.
  [[nodiscard]] std::vector<Outcome> run(const browser::ExtensionDataset& dataset,
                                         runtime::ThreadPool* pool = nullptr,
                                         obs::Registry* registry = nullptr) const;

  [[nodiscard]] const filterlist::Engine& engine() const noexcept { return engine_; }

 private:
  filterlist::Engine engine_;
  ClassifierConfig config_;
};

/// Aggregates for the paper's Table 2 rows.
struct StageStats {
  std::uint64_t fqdns = 0;        ///< distinct third-party FQDNs
  std::uint64_t registrables = 0; ///< distinct registrable domains ("TLD")
  std::uint64_t unique_urls = 0;
  std::uint64_t total_requests = 0;
};

struct ClassificationSummary {
  StageStats abp;    ///< stage 1
  StageStats semi;   ///< stages 2+3 combined
  StageStats total;  ///< union
  std::uint64_t untracked_requests = 0;  ///< NTF size
};

[[nodiscard]] ClassificationSummary summarize(const browser::ExtensionDataset& dataset,
                                              const std::vector<Outcome>& outcomes);

/// Scoring against world ground truth (tests / ablations only): a request
/// is truly tracking when its domain's org is not a CleanService.
struct Score {
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t false_negatives = 0;
  std::uint64_t true_negatives = 0;

  [[nodiscard]] double precision() const noexcept;
  [[nodiscard]] double recall() const noexcept;
};

[[nodiscard]] Score score_against_truth(const world::World& world,
                                        const browser::ExtensionDataset& dataset,
                                        const std::vector<Outcome>& outcomes);

}  // namespace cbwt::classify
