// Deep randomized differential testing of the why-not stack: many random
// instances, every algorithm against the brute-force reference, across the
// full parameter grid of Table III. Complements whynot_algorithms_test
// with breadth; instances are kept small so the whole file stays fast.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "core/engine.h"
#include "data/generator.h"
#include "segment/segmented_engine.h"
#include "test_util.h"
#include "testing/metamorphic.h"

namespace wsk {
namespace {

using testing::SolveWhyNotBruteForce;

struct Instance {
  Dataset dataset;
  std::unique_ptr<WhyNotEngine> engine;
};

// A fresh random instance per seed: clustered or uniform layout, varying
// vocabulary skew and document lengths.
Instance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  GeneratorConfig config;
  config.num_objects = 120 + static_cast<uint32_t>(rng.NextUint64(120));
  config.vocab_size = 20 + static_cast<uint32_t>(rng.NextUint64(30));
  config.zipf_skew = rng.NextDouble(0.0, 1.4);
  config.doc_size_mean = rng.NextDouble(2.5, 6.0);
  config.num_clusters = 1 + static_cast<uint32_t>(rng.NextUint64(16));
  config.uniform_fraction = rng.NextDouble(0.0, 1.0);
  config.seed = seed * 977 + 13;
  Instance instance;
  instance.dataset = GenerateDataset(config);
  WhyNotEngine::Config engine_config;
  engine_config.node_capacity = 4 + static_cast<uint32_t>(rng.NextUint64(8));
  instance.engine =
      WhyNotEngine::Build(&instance.dataset, engine_config).value();
  return instance;
}

class WhyNotRandomInstances : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WhyNotRandomInstances, AllAlgorithmsFindTheOptimum) {
  const uint64_t seed = GetParam();
  Instance instance = MakeInstance(seed);
  const Dataset& dataset = instance.dataset;
  Rng rng(seed * 31 + 1);

  int tested = 0;
  for (int attempt = 0; attempt < 10 && tested < 3; ++attempt) {
    SpatialKeywordQuery query;
    query.loc = Point{rng.NextDouble(), rng.NextDouble()};
    query.doc =
        dataset.object(static_cast<ObjectId>(rng.NextUint64(dataset.size())))
            .doc;
    query.k = 2 + static_cast<uint32_t>(rng.NextUint64(8));
    query.alpha = rng.NextDouble(0.15, 0.85);
    const double lambda = rng.NextDouble(0.05, 0.95);

    const uint32_t position =
        query.k + 2 + static_cast<uint32_t>(rng.NextUint64(2 * query.k));
    auto missing_or = instance.engine->ObjectAtPosition(query, position);
    if (!missing_or.ok()) continue;
    const ObjectId missing = missing_or.value();

    const auto reference =
        SolveWhyNotBruteForce(dataset, query, {missing}, lambda);
    if (reference.already_in_result) continue;
    ++tested;

    WhyNotOptions options;
    options.lambda = lambda;
    for (WhyNotAlgorithm algorithm :
         {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
          WhyNotAlgorithm::kKcrBased}) {
      const WhyNotResult result =
          instance.engine->Answer(algorithm, query, {missing}, options)
              .value();
      ASSERT_NEAR(result.refined.penalty, reference.refined.penalty, 1e-9)
          << WhyNotAlgorithmName(algorithm) << " seed=" << seed
          << " lambda=" << lambda << " alpha=" << query.alpha
          << " k=" << query.k;
      // The refined query is a genuine fix.
      SpatialKeywordQuery refined = query;
      refined.doc = result.refined.doc;
      ASSERT_LE(BruteForceRank(dataset, refined, missing),
                std::max(result.refined.k, query.k));
    }
  }
  EXPECT_GT(tested, 0) << "seed " << seed
                       << " produced no testable scenario";
}

INSTANTIATE_TEST_SUITE_P(Seeds, WhyNotRandomInstances,
                         ::testing::Range<uint64_t>(1, 13));

class WhyNotRandomMultiMissing : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WhyNotRandomMultiMissing, AllAlgorithmsFindTheOptimum) {
  const uint64_t seed = GetParam();
  Instance instance = MakeInstance(seed + 1000);
  const Dataset& dataset = instance.dataset;
  Rng rng(seed * 53 + 7);

  SpatialKeywordQuery query;
  query.loc = Point{rng.NextDouble(), rng.NextDouble()};
  // Keep doc0 small so |doc0 ∪ M.doc| stays tractable for brute force.
  const KeywordSet pivot_doc =
      dataset.object(static_cast<ObjectId>(rng.NextUint64(dataset.size())))
          .doc;
  std::vector<TermId> terms(pivot_doc.begin(), pivot_doc.end());
  if (terms.size() > 3) terms.resize(3);
  query.doc = KeywordSet(std::move(terms));
  query.k = 4;
  query.alpha = 0.5;

  std::vector<ObjectId> missing;
  for (uint32_t position : {7u, 11u}) {
    auto id = instance.engine->ObjectAtPosition(query, position);
    if (!id.ok()) GTEST_SKIP();
    if (std::find(missing.begin(), missing.end(), id.value()) !=
        missing.end()) {
      GTEST_SKIP();
    }
    missing.push_back(id.value());
  }
  KeywordSet universe = query.doc;
  for (ObjectId m : missing) universe = universe.Union(dataset.object(m).doc);
  if (universe.size() > 14) GTEST_SKIP();  // keep 2^n enumerable

  const auto reference = SolveWhyNotBruteForce(dataset, query, missing, 0.5);
  if (reference.already_in_result) GTEST_SKIP();
  WhyNotOptions options;
  for (WhyNotAlgorithm algorithm :
       {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
        WhyNotAlgorithm::kKcrBased}) {
    const WhyNotResult result =
        instance.engine->Answer(algorithm, query, missing, options).value();
    ASSERT_NEAR(result.refined.penalty, reference.refined.penalty, 1e-9)
        << WhyNotAlgorithmName(algorithm) << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WhyNotRandomMultiMissing,
                         ::testing::Range<uint64_t>(1, 9));

// Mutation metamorphic invariants (testing/metamorphic.h) over the live
// SegmentedEngine: insert-then-delete is a logical no-op, a provably
// dominated insert never enters the top-k, and a forced merge changes no
// answer. Random instances; the harness callbacks keep the checks
// backend-agnostic.
class LiveMutationInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LiveMutationInvariants, HoldOnRandomInstances) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 613 + 11);
  GeneratorConfig config;
  config.num_objects = 150 + static_cast<uint32_t>(rng.NextUint64(150));
  config.vocab_size = 25 + static_cast<uint32_t>(rng.NextUint64(25));
  config.zipf_skew = rng.NextDouble(0.0, 1.2);
  config.seed = seed * 881 + 3;
  const Dataset dataset = GenerateDataset(config);

  SegmentedEngine::Config engine_config;
  engine_config.node_capacity = 16;
  engine_config.delta_capacity = 16 + static_cast<uint32_t>(seed % 32);
  engine_config.auto_merge = false;  // merges only where the checks force one
  const auto built = SegmentedEngine::Build(dataset, engine_config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SegmentedEngine* engine = built.value().get();

  SpatialKeywordQuery query;
  query.loc = Point{rng.NextDouble(), rng.NextDouble()};
  query.doc =
      dataset.object(static_cast<ObjectId>(rng.NextUint64(dataset.size())))
          .doc;
  query.k = 3 + static_cast<uint32_t>(rng.NextUint64(7));
  query.alpha = rng.NextDouble(0.2, 0.8);

  testing::MutationHarness harness;
  harness.topk = [engine](const SpatialKeywordQuery& q) {
    return engine->TopK(q);
  };
  harness.insert = [engine](Point loc,
                            const std::vector<std::string>& keywords) {
    return engine->Insert(loc, keywords);
  };
  harness.remove = [engine](ObjectId id) { return engine->Delete(id); };
  harness.merge = [engine] { return engine->ForceMerge(); };
  // Bind one why-not instance when the query admits one: a missing object
  // a few positions past k.
  const auto missing = engine->Rank(query, 0).ok()
                           ? StatusOr<ObjectId>(0u)
                           : StatusOr<ObjectId>(Status::Internal("none"));
  WhyNotOptions options;
  options.lambda = rng.NextDouble(0.1, 0.9);
  if (missing.ok()) {
    const ObjectId m = missing.value();
    harness.whynot = [engine, query, m, options] {
      return engine->Answer(WhyNotAlgorithm::kAdvanced, query, {m}, options);
    };
  }

  // Scatter some mutations first so the engine has delta + frozen state —
  // the invariants must hold on a genuinely mixed snapshot, not just a
  // freshly-seeded one.
  for (int i = 0; i < 20; ++i) {
    const uint64_t r = rng.Next();
    const auto id = engine->Insert(
        Point{rng.NextDouble(), rng.NextDouble()},
        {std::string("m").append(std::to_string(r % 7)),
         std::string("m").append(std::to_string(r % 11))});
    ASSERT_TRUE(id.ok());
    if (r % 3 == 0) {
      ASSERT_TRUE(engine->Delete(id.value()).ok());
    }
  }

  const auto identity = testing::CheckInsertThenDeleteIdentity(
      harness, query, Point{rng.NextDouble(), rng.NextDouble()},
      {"m1", "m3"});
  EXPECT_TRUE(identity.passed) << identity.message;

  const auto dominated = testing::CheckDominatedInsertUnchangedTopK(
      harness, query, dataset.bounding_rect(), engine->diagonal());
  EXPECT_TRUE(dominated.passed) << dominated.message;

  const auto merge = testing::CheckMergeInvariance(harness, query);
  EXPECT_TRUE(merge.passed) << merge.message;
  ASSERT_TRUE(merge.applicable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveMutationInvariants,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace wsk
