#include "text/keyword_set.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace wsk {
namespace {

TEST(KeywordSetTest, ConstructionSortsAndDedupes) {
  const KeywordSet set(std::vector<TermId>{5, 1, 3, 1, 5});
  EXPECT_EQ(set.terms(), (std::vector<TermId>{1, 3, 5}));
  EXPECT_EQ(set.size(), 3u);
}

TEST(KeywordSetTest, Contains) {
  const KeywordSet set{2, 4, 6};
  EXPECT_TRUE(set.Contains(4));
  EXPECT_FALSE(set.Contains(5));
  EXPECT_FALSE(KeywordSet().Contains(0));
}

TEST(KeywordSetTest, IntersectionAndUnionSizes) {
  const KeywordSet a{1, 2, 3, 4};
  const KeywordSet b{3, 4, 5};
  EXPECT_EQ(a.IntersectionSize(b), 2u);
  EXPECT_EQ(a.UnionSize(b), 5u);
  EXPECT_EQ(a.IntersectionSize(KeywordSet()), 0u);
  EXPECT_EQ(a.UnionSize(KeywordSet()), 4u);
}

TEST(KeywordSetTest, SetAlgebra) {
  const KeywordSet a{1, 2, 3};
  const KeywordSet b{2, 3, 4};
  EXPECT_EQ(a.Union(b), (KeywordSet{1, 2, 3, 4}));
  EXPECT_EQ(a.Intersect(b), (KeywordSet{2, 3}));
  EXPECT_EQ(a.Subtract(b), (KeywordSet{1}));
  EXPECT_EQ(b.Subtract(a), (KeywordSet{4}));
}

TEST(KeywordSetTest, WithWithout) {
  const KeywordSet a{1, 3};
  EXPECT_EQ(a.With(2), (KeywordSet{1, 2, 3}));
  EXPECT_EQ(a.With(3), a);
  EXPECT_EQ(a.Without(1), (KeywordSet{3}));
  EXPECT_EQ(a.Without(2), a);
}

TEST(KeywordSetTest, EditDistance) {
  const KeywordSet doc0{1, 2};
  EXPECT_EQ(EditDistance(doc0, doc0), 0u);
  EXPECT_EQ(EditDistance(doc0, KeywordSet{1, 2, 3}), 1u);  // one insert
  EXPECT_EQ(EditDistance(doc0, KeywordSet{1}), 1u);        // one delete
  EXPECT_EQ(EditDistance(doc0, KeywordSet{3, 4}), 4u);     // replace both
  EXPECT_EQ(EditDistance(KeywordSet(), doc0), 2u);
}

TEST(KeywordSetTest, OrderingIsLexicographic) {
  EXPECT_LT(KeywordSet({1, 2}), KeywordSet({1, 3}));
  EXPECT_LT(KeywordSet({1}), KeywordSet({1, 2}));
}

TEST(KeywordSetTest, ToString) {
  EXPECT_EQ((KeywordSet{3, 1}).ToString(), "{1, 3}");
  EXPECT_EQ(KeywordSet().ToString(), "{}");
}

// Property sweep: algebra identities on random sets.
TEST(KeywordSetTest, AlgebraPropertiesRandom) {
  Rng rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<TermId> va, vb;
    for (int i = 0; i < 12; ++i) {
      if (rng.NextBool(0.5)) va.push_back(static_cast<TermId>(i));
      if (rng.NextBool(0.5)) vb.push_back(static_cast<TermId>(i));
    }
    const KeywordSet a(std::move(va)), b(std::move(vb));
    EXPECT_EQ(a.Union(b), b.Union(a));
    EXPECT_EQ(a.Intersect(b), b.Intersect(a));
    EXPECT_EQ(a.Union(b).size(), a.UnionSize(b));
    EXPECT_EQ(a.Intersect(b).size(), a.IntersectionSize(b));
    EXPECT_EQ(a.Subtract(b).size() + a.IntersectionSize(b), a.size());
    EXPECT_EQ(EditDistance(a, b), a.Subtract(b).size() + b.Subtract(a).size());
  }
}

// The three intersection paths (scalar merge, galloping, SIMD/portable
// block) and the size-based dispatcher must agree on every input,
// including the block-boundary sizes (multiples of the 4/8-wide chunks,
// plus/minus one) and heavily skewed pairs that trip the galloping cutoff.
TEST(KeywordSetTest, IntersectionPathsAgree) {
  Rng rng(20213);
  const size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                          24, 31, 32, 33, 64, 100, 333, 1000};
  for (const size_t na : sizes) {
    for (const size_t nb : sizes) {
      // Densities chosen so overlap varies from near-empty to near-total.
      const double density = rng.NextDouble(0.05, 0.9);
      std::vector<TermId> va, vb;
      TermId t = 0;
      while (va.size() < na) {
        t += 1 + static_cast<TermId>(rng.NextUint64(6));
        if (rng.NextBool(density)) va.push_back(t);
      }
      t = 0;
      while (vb.size() < nb) {
        t += 1 + static_cast<TermId>(rng.NextUint64(6));
        if (rng.NextBool(density)) vb.push_back(t);
      }
      const KeywordSet a = KeywordSet::FromSorted(std::move(va));
      const KeywordSet b = KeywordSet::FromSorted(std::move(vb));

      const size_t expected = internal::IntersectionSizeScalar(
          a.terms().data(), a.size(), b.terms().data(), b.size());
      EXPECT_EQ(internal::IntersectionSizeBlock(a.terms().data(), a.size(),
                                                b.terms().data(), b.size()),
                expected)
          << "block na=" << na << " nb=" << nb;
      // Galloping requires the smaller set first.
      const KeywordSet& s = a.size() <= b.size() ? a : b;
      const KeywordSet& l = a.size() <= b.size() ? b : a;
      EXPECT_EQ(internal::IntersectionSizeGalloping(
                    s.terms().data(), s.size(), l.terms().data(), l.size()),
                expected)
          << "gallop na=" << na << " nb=" << nb;
      EXPECT_EQ(a.IntersectionSize(b), expected)
          << "dispatch na=" << na << " nb=" << nb;
      EXPECT_EQ(b.IntersectionSize(a), expected)
          << "dispatch(swapped) na=" << na << " nb=" << nb;
    }
  }
}

TEST(KeywordSetTest, IntersectionIdenticalSetsAndSharedTails) {
  // Equal arrays maximize the block path's all-equal compares; a shared
  // tail after a disjoint prefix exercises the advance-on-tie logic.
  std::vector<TermId> v;
  for (TermId t = 0; t < 50; ++t) v.push_back(t * 3);
  const KeywordSet a = KeywordSet::FromSorted(v);
  EXPECT_EQ(a.IntersectionSize(a), a.size());

  std::vector<TermId> prefix_a, prefix_b;
  for (TermId t = 0; t < 20; ++t) {
    prefix_a.push_back(t * 2);       // evens
    prefix_b.push_back(t * 2 + 1);   // odds
  }
  for (TermId t = 1000; t < 1040; ++t) {
    prefix_a.push_back(t);
    prefix_b.push_back(t);
  }
  const KeywordSet sa = KeywordSet::FromSorted(std::move(prefix_a));
  const KeywordSet sb = KeywordSet::FromSorted(std::move(prefix_b));
  EXPECT_EQ(sa.IntersectionSize(sb), 40u);
}

}  // namespace
}  // namespace wsk
