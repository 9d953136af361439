// Tests at the paper's index configuration: node capacity 100 over 4 KiB
// pages. Records are sized to their contents, and at this fan-out the KcR
// inner records (one keyword-count map per child) outgrow one page. Most
// unit tests use small capacities (single-page records); this file pins
// down the multi-page record path end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "data/generator.h"
#include "index/verify.h"
#include "test_util.h"

namespace wsk {
namespace {

class PaperScaleConfigTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_objects = 2500;  // several levels at fan-out 100
    config.vocab_size = 300;
    config.seed = 777;
    dataset_ = GenerateDataset(config);
    WhyNotEngine::Config engine_config;  // defaults = the paper's setup
    engine_ = WhyNotEngine::Build(&dataset_, engine_config).value();
  }

  Dataset dataset_;
  std::unique_ptr<WhyNotEngine> engine_;
};

// Every record wastes less than one page of padding; returns the widest
// record's page count.
template <typename Tree>
uint32_t CheckRecordsSizedToContents(const Tree& tree, uint32_t page_size) {
  uint32_t widest = 0;
  std::vector<PageId> frontier{tree.SearchRoot()};
  while (!frontier.empty()) {
    std::vector<PageId> next;
    for (PageId page : frontier) {
      const NodeStat stat = tree.StatNode(page).value();
      EXPECT_LE(stat.record_bytes, stat.record_pages * page_size);
      EXPECT_GT(stat.record_bytes, (stat.record_pages - 1) * page_size);
      widest = std::max(widest, stat.record_pages);
      if (!stat.is_leaf) {
        const auto node = tree.ReadNode(page).value();
        for (const auto& e : node.inner_entries) next.push_back(e.child);
      }
    }
    frontier = std::move(next);
  }
  return widest;
}

TEST_F(PaperScaleConfigTest, RecordsSizedToContents) {
  EXPECT_GE(engine_->setr_tree().height(), 2u);
  const uint32_t page_size = engine_->setr_pager().page_size();
  CheckRecordsSizedToContents(engine_->setr_tree(), page_size);
  EXPECT_GE(CheckRecordsSizedToContents(engine_->kcr_tree(), page_size), 2u);
}

TEST_F(PaperScaleConfigTest, BothTreesVerifyClean) {
  VerifyStats stats;
  EXPECT_TRUE(VerifySetRTree(engine_->setr_tree(), &stats).ok());
  EXPECT_EQ(stats.objects_seen, dataset_.size());
  EXPECT_TRUE(VerifyKcrTree(engine_->kcr_tree(), &stats).ok());
  EXPECT_EQ(stats.objects_seen, dataset_.size());
}

TEST_F(PaperScaleConfigTest, TopKMatchesBruteForce) {
  Rng rng(1);
  for (int iter = 0; iter < 3; ++iter) {
    SpatialKeywordQuery q;
    q.loc = Point{rng.NextDouble(), rng.NextDouble()};
    q.doc = dataset_
                .object(static_cast<ObjectId>(rng.NextUint64(dataset_.size())))
                .doc;
    q.k = 25;
    q.alpha = 0.5;
    const auto expected = BruteForceTopK(dataset_, q);
    const auto actual = engine_->TopK(q).value();
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id);
    }
  }
}

TEST_F(PaperScaleConfigTest, WhyNotAlgorithmsAgreeWithBruteForce) {
  Rng rng(2);
  SpatialKeywordQuery q;
  q.loc = Point{rng.NextDouble(), rng.NextDouble()};
  q.doc = dataset_.object(42).doc;
  q.k = 10;
  q.alpha = 0.5;
  const ObjectId missing = engine_->ObjectAtPosition(q, 51).value();
  const auto reference =
      testing::SolveWhyNotBruteForce(dataset_, q, {missing}, 0.5);
  if (reference.already_in_result) GTEST_SKIP();
  WhyNotOptions options;
  for (WhyNotAlgorithm algorithm :
       {WhyNotAlgorithm::kAdvanced, WhyNotAlgorithm::kKcrBased}) {
    const WhyNotResult result =
        engine_->Answer(algorithm, q, {missing}, options).value();
    EXPECT_NEAR(result.refined.penalty, reference.refined.penalty, 1e-9)
        << WhyNotAlgorithmName(algorithm);
  }
}

TEST_F(PaperScaleConfigTest, TinyBufferStillCorrect) {
  // A buffer of only 16 frames forces constant eviction of two-page nodes;
  // results must not change.
  WhyNotEngine::Config config;
  config.buffer_bytes = 16 * 4096;
  auto tiny = WhyNotEngine::Build(&dataset_, config).value();
  SpatialKeywordQuery q;
  q.loc = Point{0.4, 0.4};
  q.doc = dataset_.object(7).doc;
  q.k = 20;
  q.alpha = 0.5;
  const auto expected = BruteForceTopK(dataset_, q);
  const auto actual = tiny->TopK(q).value();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id);
  }
}

}  // namespace
}  // namespace wsk
