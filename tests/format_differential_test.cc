// Read-path differential (docs/STORAGE.md "Read paths"): an engine reading
// its node records through the buffer pool (pread) and one reading them
// from a read-only mapping (mmap) must be observationally identical, and
// both must agree with the brute-force oracle. The mapping hands back the
// same bytes the buffered path copies, so TopK and every why-not algorithm
// must agree exactly — ids, scores, refined keywords, ranks, and
// penalties, with no tolerance. Runs over the same seeded scenario
// generator as the oracle suite; failures print the seed-bearing scenario
// description.
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/whynot.h"
#include "testing/oracle.h"
#include "testing/scenario_gen.h"

namespace wsk {
namespace {

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kLastSeed = 120;

constexpr WhyNotAlgorithm kAlgorithms[] = {
    WhyNotAlgorithm::kBasic,
    WhyNotAlgorithm::kAdvanced,
    WhyNotAlgorithm::kKcrBased,
};

struct ReadPath {
  const char* name;
  bool mmap;
};

constexpr ReadPath kPaths[] = {
    {"pread", false},  // the paper's buffered setup, the engine default
    {"mmap", true},    // the frozen-segment default
};

class FormatDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FormatDifferentialTest, ReadPathsMatchOracleBitExactly) {
  const uint64_t seed = GetParam();
  std::optional<testing::WhyNotScenario> scenario =
      testing::MakeScenario(seed, {});
  if (!scenario.has_value()) {
    GTEST_SKIP() << "seed " << seed << " yields no usable instance";
  }
  SCOPED_TRACE(scenario->Describe());

  std::vector<std::unique_ptr<WhyNotEngine>> engines;
  for (const ReadPath& path : kPaths) {
    WhyNotEngine::Config config;
    config.node_capacity = 16;  // multi-level trees at scenario scale
    config.mmap_reads = path.mmap;
    StatusOr<std::unique_ptr<WhyNotEngine>> built =
        WhyNotEngine::Build(&scenario->dataset, config);
    ASSERT_TRUE(built.ok()) << path.name << ": "
                            << built.status().ToString();
    engines.push_back(std::move(built).value());
  }

  // TopK: the linear-scan stream is the reference.
  const std::vector<ScoredObject> want_top =
      BruteForceTopK(scenario->dataset, scenario->query);
  for (size_t c = 0; c < engines.size(); ++c) {
    SCOPED_TRACE(kPaths[c].name);
    const auto top = engines[c]->TopK(scenario->query).value();
    ASSERT_EQ(top.size(), want_top.size());
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].id, want_top[i].id);
      EXPECT_EQ(top[i].score, want_top[i].score);  // bit-exact
    }
  }

  const testing::OracleResult oracle = testing::SolveWhyNotOracle(
      scenario->dataset, scenario->query, scenario->missing,
      scenario->options.lambda);
  for (WhyNotAlgorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(WhyNotAlgorithmName(algorithm));
    std::vector<WhyNotResult> results;
    for (size_t c = 0; c < engines.size(); ++c) {
      SCOPED_TRACE(kPaths[c].name);
      StatusOr<WhyNotResult> got = engines[c]->Answer(
          algorithm, scenario->query, scenario->missing, scenario->options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const WhyNotResult& result = got.value();
      EXPECT_EQ(result.already_in_result, oracle.already_in_result);
      EXPECT_EQ(result.stats.initial_rank, oracle.initial_rank);
      if (oracle.already_in_result) {
        EXPECT_TRUE(result.refined.doc == scenario->query.doc)
            << "got " << result.refined.doc.ToString();
        EXPECT_EQ(result.refined.k, scenario->query.k);
      } else {
        EXPECT_EQ(result.refined.penalty, oracle.best.penalty);  // exact
        EXPECT_TRUE(result.refined.doc == oracle.best.doc)
            << "got " << result.refined.doc.ToString() << " want "
            << oracle.best.doc.ToString();
        EXPECT_EQ(result.refined.edit_distance, oracle.best.edit_distance);
        EXPECT_EQ(result.refined.rank, oracle.best.rank);
        EXPECT_EQ(result.refined.k, oracle.best.k);
      }
      results.push_back(result);
    }
    // And the two read paths agree with each other field for field.
    const RefinedQuery& a = results[0].refined;
    const RefinedQuery& b = results[1].refined;
    EXPECT_EQ(results[0].already_in_result, results[1].already_in_result);
    EXPECT_EQ(a.doc, b.doc) << a.doc.ToString() << " vs " << b.doc.ToString();
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.edit_distance, b.edit_distance);
    EXPECT_EQ(a.penalty, b.penalty);  // exact, no tolerance
  }

  // The mapped engine actually used the map for its reads.
  EXPECT_EQ(engines[0]->io_snapshot().setr_mapped, 0u);
  EXPECT_GT(engines[1]->io_snapshot().setr_mapped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatDifferentialTest,
                         ::testing::Range(kFirstSeed, kLastSeed + 1));

}  // namespace
}  // namespace wsk
