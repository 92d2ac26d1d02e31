#include "classify/classifier.h"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "core/study.h"
#include "filterlist/generate.h"
#include "filterlist/reference.h"
#include "net/url.h"
#include "runtime/thread_pool.h"
#include "util/fnv1a.h"
#include "util/prng.h"

namespace cbwt::classify {
namespace {

// ---------------------------------------------------------------- spec

/// The executable specification of Classifier::run: the serial three
/// stages as first written, a full index-order rescan per referrer pass
/// over a node-based hash set and a full Url::parse per keyword test.
/// Classifier::run must return exactly these outcomes. `engine` is the
/// classifier's own Engine or a filterlist::ReferenceEngine over the
/// same lists, the matcher's own spec.
template <typename Matcher>
std::vector<Outcome> reference_classify(const Matcher& engine,
                                        const ClassifierConfig& config,
                                        const browser::ExtensionDataset& dataset) {
  const auto hash_url = [](std::string_view url) {
    return util::mix64(util::fnv1a(url));
  };
  const auto host_of = [](std::string_view url) -> std::string_view {
    const std::size_t scheme = url.find("://");
    if (scheme == std::string_view::npos) return {};
    const std::size_t start = scheme + 3;
    std::size_t end = url.find('/', start);
    if (end == std::string_view::npos) end = url.size();
    return url.substr(start, end - start);
  };
  const auto url_has_arguments = [](std::string_view url) {
    const std::size_t q = url.find('?');
    return q != std::string_view::npos && q + 1 < url.size();
  };

  const auto& requests = dataset.requests;
  std::vector<Outcome> outcomes(requests.size());
  std::unordered_set<std::uint64_t> ltf_urls;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& request = requests[i];
    const std::string_view host = host_of(request.url);
    filterlist::RequestContext context;
    context.url = request.url;
    context.host = host;
    context.page_host = host_of(request.referrer).empty() ? host : host_of(request.referrer);
    context.third_party = true;
    const filterlist::MatchResult hit = engine.match(context);
    if (hit.matched) {
      outcomes[i] = {Method::AbpList, hit.list};
      ltf_urls.insert(hash_url(request.url));
    }
  }
  if (config.enable_referrer_stage) {
    bool changed = true;
    for (std::size_t pass = 0; changed && pass < config.max_iterations; ++pass) {
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
  if (config.enable_keyword_stage) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (outcomes[i].method != Method::None) continue;
      if (!url_has_arguments(requests[i].url)) continue;
      const auto url = net::Url::parse(requests[i].url);
      if (!url) continue;
      for (const auto& [key, value] : url->arguments()) {
        bool hit = false;
        for (const auto& keyword : config.keywords) {
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
  }
  return outcomes;
}

/// Asserts that `classifier` (built with `config`) returns
/// reference_classify's outcomes, request by request; matched by
/// `spec_engine` when given, by the classifier's engine otherwise.
void expect_matches_reference(const Classifier& classifier, const ClassifierConfig& config,
                              const browser::ExtensionDataset& dataset,
                              runtime::ThreadPool* pool = nullptr,
                              const filterlist::ReferenceEngine* spec_engine = nullptr) {
  const auto expected = spec_engine != nullptr
                            ? reference_classify(*spec_engine, config, dataset)
                            : reference_classify(classifier.engine(), config, dataset);
  const auto actual = classifier.run(dataset, pool);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].method, expected[i].method) << "request " << i;
    EXPECT_EQ(actual[i].list, expected[i].list) << "request " << i;
  }
}

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

// ------------------------------------------------------ spec equivalence

/// Appends one request; every call stores its texts anew, so equal text
/// never shares an address unless a test reuses a view on purpose.
void add_request(browser::ExtensionDataset& dataset, std::string_view url,
                 std::string_view referrer) {
  browser::ThirdPartyRequest request;
  request.url = dataset.add_text(url);
  request.referrer = dataset.add_text(referrer);
  dataset.requests.push_back(request);
}

/// A referrer chain of `hops` promotable requests below a listed root,
/// stored leaf first: request k (0-based) has depth hops - k, and the
/// root comes last. Index-order passes then climb one level per pass.
browser::ExtensionDataset reversed_chain(std::size_t hops) {
  browser::ExtensionDataset dataset;
  const auto hop_url = [](std::size_t depth) {
    return "https://h" + std::to_string(depth) + ".com/x?d=" + std::to_string(depth);
  };
  for (std::size_t depth = hops; depth >= 1; --depth) {
    add_request(dataset, hop_url(depth),
                depth == 1 ? std::string("https://ads.known.com/t.js?v=1") : hop_url(depth - 1));
  }
  add_request(dataset, "https://ads.known.com/t.js?v=1", "https://pub.com/");
  return dataset;
}

TEST(ClassifierSpec, ChildrenBeforeParentsStopAtTheIterationCap) {
  ClassifierConfig config;
  ASSERT_EQ(config.max_iterations, 6U);
  const auto dataset = reversed_chain(10);
  const auto classifier = hand_classifier(config);
  const auto outcomes = classifier.run(dataset);
  // Depth d is promoted in pass d, so depths 1..6 make it, 7..10 do not.
  for (std::size_t k = 0; k < 10; ++k) {
    const std::size_t depth = 10 - k;
    EXPECT_EQ(outcomes[k].method, depth <= 6 ? Method::Referrer : Method::None) << depth;
  }
  EXPECT_EQ(outcomes[10].method, Method::AbpList);
  expect_matches_reference(classifier, config, dataset);
}

TEST(ClassifierSpec, OnePassPromotesOnlyWhatIndexOrderReaches) {
  ClassifierConfig config;
  config.max_iterations = 1;
  // A leaf-first chain, then a root-first chain: one pass climbs one
  // level of the first but the whole of the second.
  auto dataset = reversed_chain(4);
  add_request(dataset, "https://a.com/x?d=1", "https://ads.known.com/t.js?v=1");
  add_request(dataset, "https://b.com/x?d=2", "https://a.com/x?d=1");
  add_request(dataset, "https://c.com/x?d=3", "https://b.com/x?d=2");
  const auto classifier = hand_classifier(config);
  const auto outcomes = classifier.run(dataset);
  EXPECT_EQ(outcomes[0].method, Method::None);      // depth 4
  EXPECT_EQ(outcomes[2].method, Method::None);      // depth 2
  EXPECT_EQ(outcomes[3].method, Method::Referrer);  // depth 1
  for (std::size_t i = 5; i < 8; ++i) EXPECT_EQ(outcomes[i].method, Method::Referrer) << i;
  expect_matches_reference(classifier, config, dataset);
}

TEST(ClassifierSpec, UrlIdentityIsTextNotAddress) {
  browser::ExtensionDataset dataset;
  // Listed twice, each copy stored separately.
  add_request(dataset, "https://ads.known.com/t.js?v=1", "https://pub.com/");
  add_request(dataset, "https://ads.known.com/t.js?v=1", "https://pub.com/");
  // Referrer text equal to the listed URL, stored at its own address.
  add_request(dataset, "https://a.com/x?d=1", "https://ads.known.com/t.js?v=1");
  // Same URL text as request 2, promoted through request 2's text.
  add_request(dataset, "https://a.com/x?d=1", "https://a.com/x?d=1");
  // One view shared by URL and referrer: no listed parent, no promotion.
  browser::ThirdPartyRequest self;
  self.url = dataset.add_text("https://z.com/x?d=9");
  self.referrer = self.url;
  dataset.requests.push_back(self);
  // Near-miss text: differs from the listed URL by one byte.
  add_request(dataset, "https://b.com/x?d=2", "https://ads.known.com/t.js?v=2");
  const ClassifierConfig config;
  const auto classifier = hand_classifier(config);
  const auto outcomes = classifier.run(dataset);
  EXPECT_EQ(outcomes[1].method, Method::AbpList);
  EXPECT_EQ(outcomes[2].method, Method::Referrer);
  EXPECT_EQ(outcomes[3].method, Method::Referrer);
  EXPECT_EQ(outcomes[4].method, Method::None);
  EXPECT_EQ(outcomes[5].method, Method::None);
  expect_matches_reference(classifier, config, dataset);
}

TEST(ClassifierSpec, ReferrerStageReportsCandidatesAndPasses) {
  // Root-first chain: pass 1 promotes both hops, pass 2 finds nothing
  // left to promote and ends the fixpoint. Request 3 has no arguments
  // and request 4 no referrer, so neither is a candidate.
  browser::ExtensionDataset dataset;
  add_request(dataset, "https://ads.known.com/t.js?v=1", "https://pub.com/");
  add_request(dataset, "https://a.com/x?d=1", "https://ads.known.com/t.js?v=1");
  add_request(dataset, "https://b.com/x?d=2", "https://a.com/x?d=1");
  add_request(dataset, "https://c.com/x", "https://b.com/x?d=2");
  add_request(dataset, "https://d.com/x?d=4", "");
  add_request(dataset, "https://e.com/x?d=5", "https://nowhere.com/");
  obs::Registry registry;
  const auto outcomes = hand_classifier().run(dataset, nullptr, &registry);
  EXPECT_EQ(outcomes[2].method, Method::Referrer);
  EXPECT_EQ(registry.counter_value("cbwt_classify_referrer_promotions_total"), 2U);
  EXPECT_EQ(registry.counter_value("cbwt_classify_referrer_passes_total"), 2U);
  std::uint64_t candidates = 0;
  for (const auto& span : registry.spans()) {
    if (span.name == "classify/stage2_referrer") candidates = span.items;
  }
  EXPECT_EQ(candidates, 3U);
}

/// Keyword-stage edge cases: (URL, expected method).
const std::vector<std::pair<std::string_view, Method>>& keyword_cases() {
  static const std::vector<std::pair<std::string_view, Method>> cases = {
      {"https://a.com/p?usermatch=1", Method::Keyword},
      {"https://a.com/p#?usermatch=1", Method::None},       // behind '#'
      {"https://a.com/p?x=1#&usermatch=1", Method::None},   // behind '#'
      {"https://a.com?usermatch=1", Method::Keyword},       // '?' ends the authority
      {"https://a.com:8443?usermatch=1", Method::Keyword},
      {"https://a.com/p?usermatch", Method::Keyword},       // valueless key
      {"https://a.com/p?&&usermatch=1", Method::Keyword},   // empty pairs
      {"https://a.com/p?=1&usermatch=&", Method::Keyword},
      {"https://a.com/p?USERMATCH=1", Method::None},        // keys are case-exact
      {"https://a.com/p?x=usermatch", Method::None},        // a value, not a key
      {"https://a.com/p?x=1?usermatch=1", Method::None},    // inside pair "x=1?..."
      {"https://a.com/p?", Method::None},
      {"ftp://a.com/p?usermatch=1", Method::None},          // Url::parse rejects
      {"https://a b.com/p?usermatch=1", Method::None},
      {"https://a.com:0/p?usermatch=1", Method::None},
      {"https:///p?usermatch=1", Method::None},
      {"a.com/p?usermatch=1", Method::None},
  };
  return cases;
}

TEST(ClassifierSpec, KeywordScanFollowsTheParsedQuery) {
  browser::ExtensionDataset dataset;
  for (const auto& [url, method] : keyword_cases()) {
    add_request(dataset, url, "https://nowhere.com/");
  }
  const ClassifierConfig config;
  const auto classifier = hand_classifier(config);
  const auto outcomes = classifier.run(dataset);
  for (std::size_t i = 0; i < keyword_cases().size(); ++i) {
    EXPECT_EQ(outcomes[i].method, keyword_cases()[i].second) << keyword_cases()[i].first;
  }
  expect_matches_reference(classifier, config, dataset);
}

TEST(ClassifierSpec, EveryStageCombinationMatchesTheReference) {
  auto dataset = reversed_chain(8);
  for (const auto& [url, method] : keyword_cases()) {
    add_request(dataset, url, "https://nowhere.com/");
  }
  // A keyword URL that stage 2 reaches first.
  add_request(dataset, "https://cm.x.com/s?usermatch=1", "https://ads.known.com/t.js?v=1");
  const auto extra = hand_dataset();
  for (const auto& request : extra.requests) add_request(dataset, request.url, request.referrer);
  for (const bool referrer : {false, true}) {
    for (const bool keyword : {false, true}) {
      ClassifierConfig config;
      config.enable_referrer_stage = referrer;
      config.enable_keyword_stage = keyword;
      SCOPED_TRACE(testing::Message() << "referrer " << referrer << " keyword " << keyword);
      expect_matches_reference(hand_classifier(config), config, dataset);
    }
  }
}

TEST(ClassifierSpec, StudyDatasetsMatchTheReferenceAtAnyPoolSize) {
  auto pool2 = std::make_unique<runtime::ThreadPool>(2);
  auto pool4 = std::make_unique<runtime::ThreadPool>(4);
  for (const std::uint64_t seed : {4711ULL, 20180901ULL}) {
    core::StudyConfig study_config;
    study_config.world.seed = seed;
    study_config.world.scale = 0.01;
    core::Study study(study_config);
    const auto& dataset = study.dataset();
    ASSERT_GT(dataset.requests.size(), 1000U);
    ClassifierConfig capped;
    capped.max_iterations = 1;
    ClassifierConfig no_referrer;
    no_referrer.enable_referrer_stage = false;
    for (const ClassifierConfig& config : {ClassifierConfig{}, capped, no_referrer}) {
      util::Rng list_rng(seed);
      const auto lists = filterlist::generate_lists(study.world(), list_rng);
      filterlist::Engine engine;
      filterlist::ReferenceEngine spec_engine;
      engine.add_list(filterlist::FilterList("easylist", lists.easylist));
      engine.add_list(filterlist::FilterList("easyprivacy", lists.easyprivacy));
      spec_engine.add_list(filterlist::FilterList("easylist", lists.easylist));
      spec_engine.add_list(filterlist::FilterList("easyprivacy", lists.easyprivacy));
      const Classifier classifier(std::move(engine), config);
      for (runtime::ThreadPool* pool : {static_cast<runtime::ThreadPool*>(nullptr),
                                        pool2.get(), pool4.get()}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " max_iterations "
                                        << config.max_iterations << " referrer "
                                        << config.enable_referrer_stage << " threads "
                                        << (pool == nullptr ? 1 : pool->size()));
        expect_matches_reference(classifier, config, dataset, pool, &spec_engine);
      }
    }
    // The Study's own classifier, as the pipeline runs it.
    expect_matches_reference(study.classifier(), study_config.classifier, dataset);
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
