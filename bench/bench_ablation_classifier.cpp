// Ablation: what each classification stage contributes — lists only,
// +referrer chaining, +keywords — scored against the world's ground
// truth (which the classifier itself never sees).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace cbwt;
  bench::reject_arguments(argc, argv);
  const auto config = bench::bench_config();
  bench::print_header("Ablation: classifier stages (lists / +referrer / +keywords)",
                      config);
  core::Study study(config);
  const auto& dataset = study.dataset();

  struct Variant {
    const char* name;
    bool referrer;
    bool keyword;
  };
  const Variant variants[] = {
      {"ABP lists only", false, false},
      {"lists + referrer chaining", true, false},
      {"lists + keywords", false, true},
      {"full (lists + referrer + keywords)", true, true},
  };

  util::TextTable table({"variant", "tracking requests", "precision", "recall"});
  for (const auto& variant : variants) {
    // Rebuild the engine per variant (the classifier owns its engine).
    auto rng = util::Rng(util::mix64(config.world.seed ^ util::mix64(0xF117)));
    const auto lists = filterlist::generate_lists(study.world(), rng);
    filterlist::Engine engine;
    engine.add_list(filterlist::FilterList("easylist", lists.easylist));
    engine.add_list(filterlist::FilterList("easyprivacy", lists.easyprivacy));
    classify::ClassifierConfig classifier_config;
    classifier_config.enable_referrer_stage = variant.referrer;
    classifier_config.enable_keyword_stage = variant.keyword;
    const classify::Classifier classifier(std::move(engine), classifier_config);
    const auto outcomes = classifier.run(dataset);
    const auto score = classify::score_against_truth(study.world(), dataset, outcomes);
    std::uint64_t flagged = 0;
    for (const auto& outcome : outcomes) {
      flagged += classify::is_tracking(outcome.method) ? 1 : 0;
    }
    table.add_row({variant.name, util::fmt_count(flagged),
                   util::fmt_pct(100.0 * score.precision()),
                   util::fmt_pct(100.0 * score.recall())});
  }
  std::printf("%s", table.render().c_str());

  bench::print_paper_note(
      "Design-choice check (§3.2): blocking lists alone miss the chained\n"
      "requests an ad blocker would have prevented from firing; the referrer\n"
      "stage roughly doubles detection and the keyword stage mops up chains\n"
      "whose parent was itself unlisted. Expected: recall climbs sharply from\n"
      "row 1 to row 4 while precision stays near 100%.");
  return 0;
}
