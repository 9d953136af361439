#include "index/kcr_tree.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "data/generator.h"
#include "index/setr_tree.h"
#include "index/topk.h"
#include "test_util.h"

namespace wsk {
namespace {

using testing::TempFile;

struct TreeBundle {
  std::unique_ptr<TempFile> file;
  std::unique_ptr<Pager> pager;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<KcrTree> tree;
};

TreeBundle BulkLoad(const Dataset& dataset, uint32_t capacity = 8) {
  TreeBundle bundle;
  bundle.file = std::make_unique<TempFile>("kcr");
  bundle.pager = Pager::Create(bundle.file->path()).value();
  bundle.pool = std::make_unique<BufferPool>(bundle.pager.get(), 4u << 20);
  KcrTree::Options options;
  options.capacity = capacity;
  bundle.tree = KcrTree::BulkLoad(dataset, bundle.pool.get(), options).value();
  return bundle;
}

Dataset SmallDataset(uint32_t n, uint64_t seed) {
  GeneratorConfig config;
  config.num_objects = n;
  config.vocab_size = 40;
  config.seed = seed;
  return GenerateDataset(config);
}

struct SubtreeFacts {
  Rect mbr;
  KeywordCountMap kcm;
  uint32_t objects = 0;
};

SubtreeFacts CheckSubtree(const KcrTree& tree, const Dataset& dataset,
                          PageId page) {
  SubtreeFacts facts;
  const auto decoded = tree.ReadDecodedNode(page, /*use_cache=*/false).value();
  const KcrTree::Node& node = decoded->node;
  EXPECT_GE(node.size(), 1u);
  EXPECT_LE(node.size(), tree.options().capacity);
  if (node.is_leaf) {
    for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
      const KcrTree::LeafEntry& e = node.leaf_entries[i];
      const KeywordSet& doc = decoded->leaf_docs[i];
      EXPECT_EQ(doc, dataset.object(e.object).doc);
      facts.mbr.Extend(e.loc);
      facts.kcm.AddDoc(doc);
      facts.objects += 1;
    }
  } else {
    for (size_t i = 0; i < node.inner_entries.size(); ++i) {
      const KcrTree::InnerEntry& e = node.inner_entries[i];
      const SubtreeFacts child = CheckSubtree(tree, dataset, e.child);
      EXPECT_TRUE(e.mbr.ContainsRect(child.mbr));
      EXPECT_EQ(e.cnt, child.objects);
      EXPECT_TRUE(decoded->child_kcms[i] == child.kcm);
      facts.mbr.Extend(child.mbr);
      facts.kcm.Merge(child.kcm);
      facts.objects += child.objects;
    }
  }
  return facts;
}

TEST(KcrTreeTest, BulkLoadStructuralInvariants) {
  const Dataset dataset = SmallDataset(300, 11);
  TreeBundle bundle = BulkLoad(dataset);
  EXPECT_EQ(bundle.tree->num_objects(), dataset.size());
  const SubtreeFacts facts =
      CheckSubtree(*bundle.tree, dataset, bundle.tree->SearchRoot());
  EXPECT_EQ(facts.objects, dataset.size());
  // The root summary in the metadata matches the recomputed facts.
  EXPECT_EQ(bundle.tree->root_cnt(), facts.objects);
  EXPECT_TRUE(bundle.tree->root_mbr().ContainsRect(facts.mbr));
  EXPECT_TRUE(bundle.tree->ReadRootKcm().value() == facts.kcm);
}

TEST(KcrTreeTest, RootKcmCountsMatchDocumentFrequencies) {
  const Dataset dataset = SmallDataset(200, 13);
  TreeBundle bundle = BulkLoad(dataset);
  const KeywordCountMap root = bundle.tree->ReadRootKcm().value();
  for (const auto& [term, count] : root.pairs()) {
    EXPECT_EQ(count, dataset.vocabulary().DocumentFrequency(term));
  }
}

class KcrTopKSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, double,
                                                 SimilarityModel>> {};

TEST_P(KcrTopKSweep, MatchesBruteForce) {
  const auto [k, alpha, model] = GetParam();
  const Dataset dataset = SmallDataset(400, 29);
  TreeBundle bundle = BulkLoad(dataset);
  Rng rng(100 + k);
  for (int q_iter = 0; q_iter < 5; ++q_iter) {
    SpatialKeywordQuery q;
    q.loc = Point{rng.NextDouble(), rng.NextDouble()};
    q.doc = dataset
                .object(static_cast<ObjectId>(rng.NextUint64(dataset.size())))
                .doc;
    q.k = k;
    q.alpha = alpha;
    q.model = model;
    const auto expected = BruteForceTopK(dataset, q);
    const auto actual = IndexTopK(*bundle.tree, q).value();
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id) << "position " << i;
      EXPECT_NEAR(actual[i].score, expected[i].score, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KcrTopKSweep,
    ::testing::Combine(::testing::Values(1u, 5u, 20u, 100u),
                       ::testing::Values(0.1, 0.5, 0.9),
                       ::testing::Values(SimilarityModel::kJaccard,
                                         SimilarityModel::kDice,
                                         SimilarityModel::kOverlap)));

TEST(KcrTreeTest, ReopenFinalizedIndex) {
  const Dataset dataset = SmallDataset(120, 43);
  TempFile file("kcr_reopen");
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    KcrTree::Options options;
    options.capacity = 8;
    auto tree = KcrTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = KcrTree::Open(&pool).value();
  EXPECT_EQ(tree->num_objects(), dataset.size());
  EXPECT_EQ(tree->root_cnt(), dataset.size());
  const SubtreeFacts facts = CheckSubtree(*tree, dataset, tree->SearchRoot());
  EXPECT_EQ(facts.objects, dataset.size());
  // The root kcm record reopens with the tree.
  EXPECT_TRUE(tree->ReadRootKcm().value() == facts.kcm);
}

// A file written in the retired version-1 format must be rejected with a
// Status that names the version, never misread.
// Version 1 meta pages belong to the retired fixed-slot format; version 2
// pages held the root keyword-count map in a blob where version 3 has the
// page id of its record.
TEST(KcrTreeTest, OpenRejectsRetiredMetaVersions) {
  for (const uint32_t version : {1u, 2u}) {
    SCOPED_TRACE(version);
    TempFile file("kcr_old_meta");
    {
      auto pager = Pager::Create(file.path()).value();
      const PageId id = pager->AllocatePages(1);
      std::vector<uint8_t> meta(pager->page_size(), 0);
      const uint32_t head[2] = {0x43524b57, version};  // "WKRC", version
      std::memcpy(meta.data(), head, sizeof(head));
      ASSERT_TRUE(pager->WritePage(id, meta.data()).ok());
    }
    auto pager = Pager::Open(file.path()).value();
    BufferPool pool(pager.get(), 1u << 20);
    auto tree = KcrTree::Open(&pool);
    ASSERT_FALSE(tree.ok());
    EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
    EXPECT_NE(tree.status().message().find("unsupported KcR-tree version " +
                                           std::to_string(version)),
              std::string::npos)
        << tree.status().ToString();
  }
}

TEST(KcrTreeTest, OpenRejectsSetRFile) {
  // Cross-format confusion must be caught by the magic check.
  const Dataset dataset = SmallDataset(50, 47);
  TempFile file("kcr_magic");
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    SetRTree::Options options;
    options.capacity = 8;
    auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = KcrTree::Open(&pool);
  EXPECT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST(KcrTreeTest, EmptyTree) {
  Dataset dataset;
  TreeBundle bundle = BulkLoad(dataset);
  EXPECT_EQ(bundle.tree->SearchRoot(), kInvalidPageId);
  EXPECT_TRUE(bundle.tree->ReadRootKcm().value().empty());
}

TEST(KcrTreeTest, ReopenAndMappedReadsPreserveSummaries) {
  const Dataset dataset = SmallDataset(250, 47);
  TempFile file("kcr_reopen_mmap");
  uint32_t want_root_cnt;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    KcrTree::Options options;
    options.capacity = 8;
    auto tree = KcrTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
    want_root_cnt = tree->root_cnt();
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = KcrTree::Open(&pool).value();
  EXPECT_EQ(tree->root_cnt(), want_root_cnt);
  ASSERT_TRUE(pager->EnableMappedReads().ok());
  pager->io_stats().Reset();
  // Decoded nodes (with their per-child dominator stats) come off the map.
  const auto decoded =
      tree->ReadDecodedNode(tree->SearchRoot(), /*use_cache=*/false);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.value()->node.is_leaf) {
    EXPECT_EQ(decoded.value()->child_stats.size(),
              decoded.value()->node.inner_entries.size());
  }
  EXPECT_GT(pager->io_stats().mapped_reads(), 0u);
  EXPECT_EQ(pager->io_stats().physical_reads(), 0u);
}

TEST(KcrTreeTest, DetectsCorruptedNode) {
  const Dataset dataset = SmallDataset(250, 53);
  TempFile file("kcr_corrupt");
  PageId victim;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    KcrTree::Options options;
    options.capacity = 8;
    auto tree = KcrTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
    victim = tree->SearchRoot();
  }
  {
    auto pager = Pager::Open(file.path()).value();
    std::vector<uint8_t> page(pager->page_size());
    ASSERT_TRUE(pager->ReadPage(victim, page.data()).ok());
    page[kNodeHeaderBytesV2 + 5] ^= 0x10;
    ASSERT_TRUE(pager->WritePage(victim, page.data()).ok());
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = KcrTree::Open(&pool).value();
  const auto read = tree->ReadDecodedNode(victim, /*use_cache=*/false);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace wsk
