#include "classify/classifier.h"

#include <gtest/gtest.h>

#include "filterlist/generate.h"

namespace cbwt::classify {
namespace {

/// Builds a tiny hand-made dataset exercising each classification stage.
browser::ExtensionDataset hand_dataset() {
  browser::ExtensionDataset dataset;
  const auto add = [&](std::string_view url, std::string_view referrer) {
    browser::ThirdPartyRequest request;
    request.url = dataset.add_text(url);
    request.referrer = dataset.add_text(referrer);
    dataset.requests.push_back(request);
  };
  // 0: listed ad request (stage 1)
  add("https://ads.known.com/tag.js?v=1", "https://pub.com/");
  // 1: chained bid with args, referrer = request 0 (stage 2)
  add("https://x.dsp.com/bid?auction=1&price=2", "https://ads.known.com/tag.js?v=1");
  // 2: second-level sync, referrer = request 1 (stage 2, second pass)
  add("https://sync.cs.com/pixel?uid=9", "https://x.dsp.com/bid?auction=1&price=2");
  // 3: keyword URL with unknown referrer (stage 3)
  add("https://cm.other.com/pixel?usermatch=1&uid=3", "https://nowhere.com/");
  // 4: clean request (no stage)
  add("https://widget.chat.com/embed?site=pub.com", "https://pub.com/");
  // 5: chained but without arguments -> not promoted by stage 2
  add("https://x.dsp.com/creative", "https://ads.known.com/tag.js?v=1");
  return dataset;
}

Classifier hand_classifier(ClassifierConfig config = {}) {
  filterlist::Engine engine;
  engine.add_list(filterlist::FilterList("easylist", {"||ads.known.com^"}));
  return Classifier(std::move(engine), std::move(config));
}

TEST(Classifier, StageAttribution) {
  const auto dataset = hand_dataset();
  // Outcome::list views a list name the classifier owns, so the
  // classifier must outlive the outcomes read below.
  const auto classifier = hand_classifier();
  const auto outcomes = classifier.run(dataset);
  ASSERT_EQ(outcomes.size(), 6U);
  EXPECT_EQ(outcomes[0].method, Method::AbpList);
  EXPECT_EQ(outcomes[0].list, "easylist");
  EXPECT_EQ(outcomes[1].method, Method::Referrer);
  EXPECT_EQ(outcomes[2].method, Method::Referrer);  // needs the fixpoint pass
  EXPECT_EQ(outcomes[3].method, Method::Keyword);
  EXPECT_EQ(outcomes[4].method, Method::None);
  EXPECT_EQ(outcomes[5].method, Method::None);
}

TEST(Classifier, ReferrerStageCanBeDisabled) {
  ClassifierConfig config;
  config.enable_referrer_stage = false;
  const auto outcomes = hand_classifier(std::move(config)).run(hand_dataset());
  EXPECT_EQ(outcomes[1].method, Method::None);
  // Request 2 now relies on keywords only; "uid" is not a keyword.
  EXPECT_EQ(outcomes[2].method, Method::None);
  EXPECT_EQ(outcomes[3].method, Method::Keyword);
}

TEST(Classifier, KeywordStageCanBeDisabled) {
  ClassifierConfig config;
  config.enable_keyword_stage = false;
  const auto outcomes = hand_classifier(std::move(config)).run(hand_dataset());
  EXPECT_EQ(outcomes[3].method, Method::None);
}

TEST(Classifier, KeywordMatchesArgumentKeysExactly) {
  browser::ExtensionDataset dataset;
  browser::ThirdPartyRequest request;
  // "cm" must match as a key, not as a substring of "cmx" or of a value.
  request.url = dataset.add_text("https://a.com/p?cmx=1&v=cm");
  request.referrer = dataset.add_text("https://nowhere.com/");
  dataset.requests.push_back(request);
  request.url = dataset.add_text("https://a.com/p?cm=1");
  dataset.requests.push_back(request);
  const auto outcomes = hand_classifier().run(dataset);
  EXPECT_EQ(outcomes[0].method, Method::None);
  EXPECT_EQ(outcomes[1].method, Method::Keyword);
}

TEST(Classifier, ChainDepthBeyondTwoIsReached) {
  browser::ExtensionDataset dataset;
  const auto add = [&](std::string_view url, std::string_view referrer) {
    browser::ThirdPartyRequest request;
    request.url = dataset.add_text(url);
    request.referrer = dataset.add_text(referrer);
    dataset.requests.push_back(request);
  };
  add("https://ads.known.com/t.js?v=1", "https://pub.com/");
  add("https://a.com/x?d=1", "https://ads.known.com/t.js?v=1");
  add("https://b.com/x?d=2", "https://a.com/x?d=1");
  add("https://c.com/x?d=3", "https://b.com/x?d=2");
  add("https://d.com/x?d=4", "https://c.com/x?d=3");
  const auto outcomes = hand_classifier().run(dataset);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(outcomes[i].method, Method::Referrer) << i;
  }
}

TEST(Classifier, ToStringCoversAllMethods) {
  EXPECT_EQ(to_string(Method::None), "none");
  EXPECT_EQ(to_string(Method::AbpList), "abp-list");
  EXPECT_EQ(to_string(Method::Referrer), "semi-referrer");
  EXPECT_EQ(to_string(Method::Keyword), "semi-keyword");
  EXPECT_FALSE(is_tracking(Method::None));
  EXPECT_TRUE(is_tracking(Method::Keyword));
}

TEST(Summarize, CountsDistinctEntities) {
  const auto dataset = hand_dataset();
  const auto outcomes = hand_classifier().run(dataset);
  const auto summary = summarize(dataset, outcomes);
  EXPECT_EQ(summary.abp.total_requests, 1U);
  EXPECT_EQ(summary.semi.total_requests, 3U);
  EXPECT_EQ(summary.total.total_requests, 4U);
  EXPECT_EQ(summary.untracked_requests, 2U);
  EXPECT_EQ(summary.abp.fqdns, 1U);
  EXPECT_EQ(summary.semi.fqdns, 3U);
  EXPECT_EQ(summary.total.fqdns, 4U);
  EXPECT_GE(summary.total.registrables, 4U);
  EXPECT_EQ(summary.total.unique_urls, 4U);
}

TEST(Score, PrecisionRecallMath) {
  Score score;
  score.true_positives = 8;
  score.false_positives = 2;
  score.false_negatives = 8;
  EXPECT_DOUBLE_EQ(score.precision(), 0.8);
  EXPECT_DOUBLE_EQ(score.recall(), 0.5);
  const Score empty;
  EXPECT_DOUBLE_EQ(empty.precision(), 0.0);
  EXPECT_DOUBLE_EQ(empty.recall(), 0.0);
}

// ---------------------------------------------------------------- pipeline

class PipelineClassification : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world::WorldConfig config;
    config.seed = 4711;
    config.scale = 0.01;
    world_ = new world::World(world::build_world(config));
    resolver_ = new dns::Resolver(*world_);
    util::Rng collect_rng(1);
    browser::CollectorConfig collector;
    dataset_ = new browser::ExtensionDataset(browser::collect_extension_dataset(
        *world_, *resolver_, collector, collect_rng));
    util::Rng list_rng(2);
    const auto lists = filterlist::generate_lists(*world_, list_rng);
    filterlist::Engine engine;
    engine.add_list(filterlist::FilterList("easylist", lists.easylist));
    engine.add_list(filterlist::FilterList("easyprivacy", lists.easyprivacy));
    classifier_ = new Classifier(std::move(engine));
    outcomes_ = new std::vector<Outcome>(classifier_->run(*dataset_));
  }
  static void TearDownTestSuite() {
    delete outcomes_;
    delete classifier_;
    delete dataset_;
    delete resolver_;
    delete world_;
  }
  static world::World* world_;
  static dns::Resolver* resolver_;
  static browser::ExtensionDataset* dataset_;
  static Classifier* classifier_;
  static std::vector<Outcome>* outcomes_;
};

world::World* PipelineClassification::world_ = nullptr;
dns::Resolver* PipelineClassification::resolver_ = nullptr;
browser::ExtensionDataset* PipelineClassification::dataset_ = nullptr;
Classifier* PipelineClassification::classifier_ = nullptr;
std::vector<Outcome>* PipelineClassification::outcomes_ = nullptr;

TEST_F(PipelineClassification, SemiStageRoughlyDoublesDetection) {
  const auto summary = summarize(*dataset_, *outcomes_);
  ASSERT_GT(summary.abp.total_requests, 0U);
  const double ratio = static_cast<double>(summary.semi.total_requests) /
                       static_cast<double>(summary.abp.total_requests);
  // Paper Table 2: semi adds ~80% on top of the ABP lists (2.45M vs 1.96M).
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 1.6);
}

TEST_F(PipelineClassification, HighPrecisionGoodRecallAgainstTruth) {
  const auto score = score_against_truth(*world_, *dataset_, *outcomes_);
  EXPECT_GT(score.precision(), 0.98);  // clean services almost never flagged
  EXPECT_GT(score.recall(), 0.90);     // most tracking flows caught
}

TEST_F(PipelineClassification, ListOnlyRecallIsMuchLower) {
  ClassifierConfig config;
  config.enable_referrer_stage = false;
  config.enable_keyword_stage = false;
  util::Rng list_rng(2);
  const auto lists = filterlist::generate_lists(*world_, list_rng);
  filterlist::Engine engine;
  engine.add_list(filterlist::FilterList("easylist", lists.easylist));
  engine.add_list(filterlist::FilterList("easyprivacy", lists.easyprivacy));
  const Classifier list_only(std::move(engine), config);
  const auto outcomes = list_only.run(*dataset_);
  const auto full_score = score_against_truth(*world_, *dataset_, *outcomes_);
  const auto list_score = score_against_truth(*world_, *dataset_, outcomes);
  EXPECT_LT(list_score.recall(), full_score.recall() - 0.2);
}

}  // namespace
}  // namespace cbwt::classify
