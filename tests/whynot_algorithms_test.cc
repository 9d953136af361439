#include <gtest/gtest.h>

#include <limits>

#include <tuple>

#include "common/rng.h"
#include "core/engine.h"
#include "data/generator.h"
#include "test_util.h"

namespace wsk {
namespace {

using testing::SolveWhyNotBruteForce;

std::unique_ptr<WhyNotEngine> MakeEngine(const Dataset& dataset,
                                         uint32_t capacity = 8) {
  WhyNotEngine::Config config;
  config.node_capacity = capacity;
  return WhyNotEngine::Build(&dataset, config).value();
}

Dataset SmallDataset(uint32_t n, uint64_t seed, uint32_t vocab = 30) {
  GeneratorConfig config;
  config.num_objects = n;
  config.vocab_size = vocab;
  config.seed = seed;
  config.doc_size_mean = 4.0;
  return GenerateDataset(config);
}

// Picks a query whose keywords come from a random object's doc and a
// missing object at (roughly) the requested position in the ranking.
struct Scenario {
  SpatialKeywordQuery query;
  ObjectId missing;
};

Scenario MakeScenario(const WhyNotEngine& engine, Rng& rng, uint32_t k,
                      uint32_t missing_position, double alpha) {
  const Dataset& dataset = engine.dataset();
  Scenario scenario;
  scenario.query.loc = Point{rng.NextDouble(), rng.NextDouble()};
  scenario.query.doc =
      dataset.object(static_cast<ObjectId>(rng.NextUint64(dataset.size())))
          .doc;
  scenario.query.k = k;
  scenario.query.alpha = alpha;
  scenario.missing =
      engine.ObjectAtPosition(scenario.query, missing_position).value();
  return scenario;
}

TEST(WhyNotAlgorithmsTest, Figure1ExampleMatchesBruteForce) {
  TermId t1, t2, t3;
  const Dataset dataset = testing::Figure1Dataset(&t1, &t2, &t3);
  const SpatialKeywordQuery query = testing::Figure1Query(t1, t2);
  auto engine = MakeEngine(dataset, 4);
  const auto reference = SolveWhyNotBruteForce(dataset, query, {2}, 0.5);
  EXPECT_EQ(reference.initial_rank, 3u);

  WhyNotOptions options;
  for (WhyNotAlgorithm algorithm :
       {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
        WhyNotAlgorithm::kKcrBased}) {
    const WhyNotResult result =
        engine->Answer(algorithm, query, {2}, options).value();
    EXPECT_FALSE(result.already_in_result);
    EXPECT_EQ(result.stats.initial_rank, 3u);
    EXPECT_NEAR(result.refined.penalty, reference.refined.penalty, 1e-12)
        << WhyNotAlgorithmName(algorithm);
    // The refined query must actually contain the missing object.
    SpatialKeywordQuery refined = query;
    refined.doc = result.refined.doc;
    EXPECT_LE(BruteForceRank(dataset, refined, 2), result.refined.k);
  }
}

// The flagship property: all three algorithms find a refined query with the
// brute-force-optimal penalty, across a parameter sweep.
class AlgorithmEquivalence
    : public ::testing::TestWithParam<std::tuple<double, double, uint32_t>> {};

TEST_P(AlgorithmEquivalence, OptimalPenaltyMatchesBruteForce) {
  const auto [alpha, lambda, k] = GetParam();
  const Dataset dataset = SmallDataset(250, 1000 + k);
  auto engine = MakeEngine(dataset);
  Rng rng(42 + k);
  WhyNotOptions options;
  options.lambda = lambda;

  int tested = 0;
  for (int attempt = 0; attempt < 8 && tested < 3; ++attempt) {
    const Scenario scenario =
        MakeScenario(*engine, rng, k, 3 * k + 1, alpha);
    const auto reference = SolveWhyNotBruteForce(dataset, scenario.query,
                                                 {scenario.missing}, lambda);
    if (reference.already_in_result) continue;  // ties can skip
    ++tested;
    for (WhyNotAlgorithm algorithm :
         {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
          WhyNotAlgorithm::kKcrBased}) {
      const WhyNotResult result =
          engine->Answer(algorithm, scenario.query, {scenario.missing},
                         options)
              .value();
      EXPECT_EQ(result.stats.initial_rank, reference.initial_rank);
      EXPECT_NEAR(result.refined.penalty, reference.refined.penalty, 1e-9)
          << WhyNotAlgorithmName(algorithm) << " alpha=" << alpha
          << " lambda=" << lambda << " k=" << k;
      // The returned refined query revives the missing object.
      SpatialKeywordQuery refined = scenario.query;
      refined.doc = result.refined.doc;
      EXPECT_LE(BruteForceRank(dataset, refined, scenario.missing),
                std::max(result.refined.k, scenario.query.k))
          << WhyNotAlgorithmName(algorithm);
    }
  }
  EXPECT_GT(tested, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgorithmEquivalence,
    ::testing::Combine(::testing::Values(0.3, 0.5, 0.7),
                       ::testing::Values(0.1, 0.5, 0.9),
                       ::testing::Values(3u, 10u)));

// Each optimization, toggled alone, must preserve the optimal result.
class OptimizationToggles : public ::testing::TestWithParam<int> {};

TEST_P(OptimizationToggles, PreserveOptimality) {
  const int toggle = GetParam();
  const Dataset dataset = SmallDataset(220, 555);
  auto engine = MakeEngine(dataset);
  Rng rng(toggle + 9);
  const Scenario scenario = MakeScenario(*engine, rng, 5, 16, 0.5);
  const auto reference =
      SolveWhyNotBruteForce(dataset, scenario.query, {scenario.missing}, 0.5);
  if (reference.already_in_result) GTEST_SKIP();

  WhyNotOptions options;
  options.opt_early_stop = toggle == 1;
  options.opt_enumeration_order = toggle == 2;
  options.opt_keyword_filtering = toggle == 3;
  options.num_threads = toggle == 4 ? 3 : 0;
  const WhyNotResult result =
      engine->Answer(WhyNotAlgorithm::kAdvanced, scenario.query,
                     {scenario.missing}, options)
          .value();
  EXPECT_NEAR(result.refined.penalty, reference.refined.penalty, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Toggles, OptimizationToggles,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(WhyNotAlgorithmsTest, MultipleMissingObjects) {
  const Dataset dataset = SmallDataset(260, 777);
  auto engine = MakeEngine(dataset);
  Rng rng(777);
  SpatialKeywordQuery query;
  query.loc = Point{rng.NextDouble(), rng.NextDouble()};
  query.doc = dataset.object(11).doc;
  query.k = 5;
  query.alpha = 0.5;
  // Missing objects drawn from positions 8, 12, 20 of the ranking.
  std::vector<ObjectId> missing;
  for (uint32_t pos : {8u, 12u, 20u}) {
    missing.push_back(engine->ObjectAtPosition(query, pos).value());
  }
  const auto reference =
      SolveWhyNotBruteForce(dataset, query, missing, 0.5);
  ASSERT_FALSE(reference.already_in_result);

  WhyNotOptions options;
  for (WhyNotAlgorithm algorithm :
       {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
        WhyNotAlgorithm::kKcrBased}) {
    const WhyNotResult result =
        engine->Answer(algorithm, query, missing, options).value();
    EXPECT_NEAR(result.refined.penalty, reference.refined.penalty, 1e-9)
        << WhyNotAlgorithmName(algorithm);
    // All missing objects enter the refined result.
    SpatialKeywordQuery refined = query;
    refined.doc = result.refined.doc;
    for (ObjectId m : missing) {
      EXPECT_LE(BruteForceRank(dataset, refined, m),
                std::max(result.refined.k, query.k));
    }
  }
}

TEST(WhyNotAlgorithmsTest, AlreadyInResultShortCircuits) {
  const Dataset dataset = SmallDataset(100, 31);
  auto engine = MakeEngine(dataset);
  SpatialKeywordQuery query;
  query.loc = Point{0.5, 0.5};
  query.doc = dataset.object(0).doc;
  query.k = 10;
  query.alpha = 0.5;
  const ObjectId top = engine->ObjectAtPosition(query, 1).value();
  WhyNotOptions options;
  for (WhyNotAlgorithm algorithm :
       {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
        WhyNotAlgorithm::kKcrBased}) {
    const WhyNotResult result =
        engine->Answer(algorithm, query, {top}, options).value();
    EXPECT_TRUE(result.already_in_result);
    EXPECT_DOUBLE_EQ(result.refined.penalty, 0.0);
    EXPECT_EQ(result.refined.doc, query.doc);
  }
}

TEST(WhyNotAlgorithmsTest, ApproximateNeverBeatsExactAndRevivesMissing) {
  const Dataset dataset = SmallDataset(240, 888);
  auto engine = MakeEngine(dataset);
  Rng rng(888);
  const Scenario scenario = MakeScenario(*engine, rng, 5, 21, 0.5);
  WhyNotOptions exact_options;
  const double exact_penalty =
      engine->Answer(WhyNotAlgorithm::kAdvanced, scenario.query,
                     {scenario.missing}, exact_options)
          .value()
          .refined.penalty;
  double prev_penalty = std::numeric_limits<double>::infinity();
  for (uint32_t sample : {2u, 8u, 32u, 4096u}) {
    WhyNotOptions options;
    options.sample_size = sample;
    const WhyNotResult result =
        engine->Answer(WhyNotAlgorithm::kAdvanced, scenario.query,
                       {scenario.missing}, options)
            .value();
    EXPECT_GE(result.refined.penalty, exact_penalty - 1e-12);
    // The approximate answer is still a valid refinement.
    SpatialKeywordQuery refined = scenario.query;
    refined.doc = result.refined.doc;
    EXPECT_LE(BruteForceRank(dataset, refined, scenario.missing),
              std::max(result.refined.k, scenario.query.k));
    // Larger samples cannot do worse here because smaller samples are
    // prefixes of larger ones under the same benefit order.
    EXPECT_LE(result.refined.penalty, prev_penalty + 1e-12);
    prev_penalty = result.refined.penalty;
  }
}

TEST(WhyNotAlgorithmsTest, ApproximateSampleAgreesAcrossAlgorithms) {
  // Section VII-B9: for a fixed sample size every algorithm returns the
  // same penalty because the sample space is identical.
  const Dataset dataset = SmallDataset(200, 999);
  auto engine = MakeEngine(dataset);
  Rng rng(999);
  const Scenario scenario = MakeScenario(*engine, rng, 5, 18, 0.5);
  WhyNotOptions options;
  options.sample_size = 16;
  double penalties[3];
  int i = 0;
  for (WhyNotAlgorithm algorithm :
       {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
        WhyNotAlgorithm::kKcrBased}) {
    penalties[i++] = engine
                         ->Answer(algorithm, scenario.query,
                                  {scenario.missing}, options)
                         .value()
                         .refined.penalty;
  }
  EXPECT_NEAR(penalties[0], penalties[1], 1e-9);
  EXPECT_NEAR(penalties[0], penalties[2], 1e-9);
}

TEST(WhyNotAlgorithmsTest, LambdaExtremesBehave) {
  const Dataset dataset = SmallDataset(200, 1234);
  auto engine = MakeEngine(dataset);
  Rng rng(1234);
  const Scenario scenario = MakeScenario(*engine, rng, 5, 16, 0.5);

  // lambda = 1: modifying keywords is free in the k-term but any keyword
  // change costs nothing textually — the optimum can be any penalty <= 1;
  // compare against brute force.
  for (double lambda : {0.0, 1.0}) {
    const auto reference = SolveWhyNotBruteForce(dataset, scenario.query,
                                                 {scenario.missing}, lambda);
    if (reference.already_in_result) continue;
    WhyNotOptions options;
    options.lambda = lambda;
    for (WhyNotAlgorithm algorithm :
         {WhyNotAlgorithm::kAdvanced, WhyNotAlgorithm::kKcrBased}) {
      const WhyNotResult result =
          engine->Answer(algorithm, scenario.query, {scenario.missing},
                         options)
              .value();
      EXPECT_NEAR(result.refined.penalty, reference.refined.penalty, 1e-9)
          << "lambda=" << lambda << " " << WhyNotAlgorithmName(algorithm);
    }
  }
}

TEST(WhyNotAlgorithmsTest, InvalidInputsRejected) {
  const Dataset dataset = SmallDataset(50, 5);
  auto engine = MakeEngine(dataset);
  WhyNotOptions options;
  SpatialKeywordQuery query;
  query.loc = Point{0.5, 0.5};
  query.doc = dataset.object(0).doc;
  query.k = 5;
  query.alpha = 0.5;

  // No missing objects.
  EXPECT_FALSE(
      engine->Answer(WhyNotAlgorithm::kAdvanced, query, {}, options).ok());
  // Out-of-range missing id.
  EXPECT_FALSE(engine
                   ->Answer(WhyNotAlgorithm::kAdvanced, query, {999999},
                            options)
                   .ok());
  // Bad alpha.
  SpatialKeywordQuery bad = query;
  bad.alpha = 1.0;
  EXPECT_FALSE(
      engine->Answer(WhyNotAlgorithm::kAdvanced, bad, {1}, options).ok());
  // Empty keywords.
  bad = query;
  bad.doc = KeywordSet();
  EXPECT_FALSE(
      engine->Answer(WhyNotAlgorithm::kAdvanced, bad, {1}, options).ok());
  // Bad lambda.
  WhyNotOptions bad_options;
  bad_options.lambda = 1.5;
  EXPECT_FALSE(
      engine->Answer(WhyNotAlgorithm::kAdvanced, query, {1}, bad_options)
          .ok());
  // NaN alpha and NaN lambda fail the range checks on every algorithm.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bad = query;
  bad.alpha = nan;
  bad_options.lambda = nan;
  for (WhyNotAlgorithm algorithm :
       {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
        WhyNotAlgorithm::kKcrBased}) {
    EXPECT_FALSE(engine->Answer(algorithm, bad, {1}, options).ok());
    EXPECT_FALSE(engine->Answer(algorithm, query, {1}, bad_options).ok());
  }
  // KcR-based requires Jaccard.
  bad = query;
  bad.model = SimilarityModel::kDice;
  EXPECT_FALSE(
      engine->Answer(WhyNotAlgorithm::kKcrBased, bad, {1}, options).ok());
}

TEST(WhyNotAlgorithmsTest, DiceModelSupportedByBasicFamily) {
  const Dataset dataset = SmallDataset(150, 2024);
  auto engine = MakeEngine(dataset);
  Rng rng(2024);
  SpatialKeywordQuery query;
  query.loc = Point{rng.NextDouble(), rng.NextDouble()};
  query.doc = dataset.object(3).doc;
  query.k = 5;
  query.alpha = 0.5;
  query.model = SimilarityModel::kDice;
  const ObjectId missing = engine->ObjectAtPosition(query, 16).value();
  const auto reference = SolveWhyNotBruteForce(dataset, query, {missing}, 0.5);
  if (reference.already_in_result) GTEST_SKIP();
  WhyNotOptions options;
  const WhyNotResult result =
      engine->Answer(WhyNotAlgorithm::kAdvanced, query, {missing}, options)
          .value();
  EXPECT_NEAR(result.refined.penalty, reference.refined.penalty, 1e-9);
}

}  // namespace
}  // namespace wsk
