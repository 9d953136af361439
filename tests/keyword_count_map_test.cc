#include "index/keyword_count_map.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace wsk {
namespace {

TEST(KeywordCountMapTest, FromDocHasUnitCounts) {
  const auto map = KeywordCountMap::FromDoc(KeywordSet{3, 1, 7});
  EXPECT_EQ(map.num_terms(), 3u);
  EXPECT_EQ(map.CountOf(1), 1u);
  EXPECT_EQ(map.CountOf(3), 1u);
  EXPECT_EQ(map.CountOf(7), 1u);
  EXPECT_EQ(map.CountOf(2), 0u);
  EXPECT_EQ(map.TotalCount(), 3u);
}

TEST(KeywordCountMapTest, AddDocAccumulates) {
  KeywordCountMap map;
  map.AddDoc(KeywordSet{1, 2});
  map.AddDoc(KeywordSet{2, 3});
  map.AddDoc(KeywordSet{2});
  EXPECT_EQ(map.CountOf(1), 1u);
  EXPECT_EQ(map.CountOf(2), 3u);
  EXPECT_EQ(map.CountOf(3), 1u);
  EXPECT_EQ(map.TotalCount(), 5u);
}

TEST(KeywordCountMapTest, MergeAddsCounts) {
  KeywordCountMap a;
  a.AddDoc(KeywordSet{1, 2});
  KeywordCountMap b;
  b.AddDoc(KeywordSet{2, 3});
  a.Merge(b);
  EXPECT_EQ(a.CountOf(1), 1u);
  EXPECT_EQ(a.CountOf(2), 2u);
  EXPECT_EQ(a.CountOf(3), 1u);
  EXPECT_TRUE(b == KeywordCountMap::FromDoc(KeywordSet{2, 3}));
}

TEST(KeywordCountMapTest, PairsStaySorted) {
  KeywordCountMap map;
  map.AddDoc(KeywordSet{9, 1});
  map.AddDoc(KeywordSet{5});
  TermId prev = 0;
  bool first = true;
  for (const auto& [term, count] : map.pairs()) {
    if (!first) {
      EXPECT_GT(term, prev);
    }
    prev = term;
    first = false;
  }
}

// Property: merging maps built from random docs equals building one map
// from the concatenation.
TEST(KeywordCountMapTest, MergeEquivalentToBatchedAdd) {
  Rng rng(5);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<KeywordSet> docs;
    for (int d = 0; d < 8; ++d) {
      std::vector<TermId> terms;
      for (TermId t = 0; t < 10; ++t) {
        if (rng.NextBool(0.4)) terms.push_back(t);
      }
      docs.emplace_back(std::move(terms));
    }
    KeywordCountMap all;
    KeywordCountMap left, right;
    for (size_t d = 0; d < docs.size(); ++d) {
      all.AddDoc(docs[d]);
      (d < 4 ? left : right).AddDoc(docs[d]);
    }
    left.Merge(right);
    EXPECT_TRUE(left == all);
  }
}

}  // namespace
}  // namespace wsk
