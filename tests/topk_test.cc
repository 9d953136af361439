#include "index/topk.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generator.h"
#include "index/setr_tree.h"
#include "test_util.h"

namespace wsk {
namespace {

using testing::TempFile;

class TopKTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_objects = 250;
    config.vocab_size = 30;
    config.seed = 404;
    dataset_ = GenerateDataset(config);
    file_ = std::make_unique<TempFile>("topk");
    pager_ = Pager::Create(file_->path()).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 4u << 20);
    SetRTree::Options options;
    options.capacity = 8;
    tree_ = SetRTree::BulkLoad(dataset_, pool_.get(), options).value();
  }

  SpatialKeywordQuery Query() const {
    SpatialKeywordQuery q;
    q.loc = Point{0.5, 0.5};
    q.doc = dataset_.object(0).doc;
    q.k = 10;
    q.alpha = 0.5;
    return q;
  }

  Dataset dataset_;
  std::unique_ptr<TempFile> file_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<SetRTree> tree_;
};

TEST_F(TopKTest, StreamsInNonIncreasingScoreOrder) {
  TopKIterator it(tree_.get(), Query());
  std::optional<ScoredObject> next;
  double prev = std::numeric_limits<double>::infinity();
  size_t count = 0;
  for (;;) {
    ASSERT_TRUE(it.Next(&next).ok());
    if (!next) break;
    EXPECT_LE(next->score, prev + 1e-12);
    prev = next->score;
    ++count;
  }
  EXPECT_EQ(count, dataset_.size());
  EXPECT_EQ(it.num_emitted(), dataset_.size());
}

TEST_F(TopKTest, StreamExhaustsThenStaysEmpty) {
  TopKIterator it(tree_.get(), Query());
  std::optional<ScoredObject> next;
  for (size_t i = 0; i < dataset_.size(); ++i) {
    ASSERT_TRUE(it.Next(&next).ok());
    ASSERT_TRUE(next.has_value());
  }
  ASSERT_TRUE(it.Next(&next).ok());
  EXPECT_FALSE(next.has_value());
  ASSERT_TRUE(it.Next(&next).ok());
  EXPECT_FALSE(next.has_value());
}

TEST_F(TopKTest, EmitsEveryObjectExactlyOnce) {
  TopKIterator it(tree_.get(), Query());
  std::vector<bool> seen(dataset_.size(), false);
  std::optional<ScoredObject> next;
  for (;;) {
    ASSERT_TRUE(it.Next(&next).ok());
    if (!next) break;
    EXPECT_FALSE(seen[next->id]) << "object emitted twice: " << next->id;
    seen[next->id] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST_F(TopKTest, TieBreakById) {
  // Duplicate objects produce equal scores; the stream must order them by
  // ascending id.
  Dataset d;
  for (int i = 0; i < 5; ++i) d.Add(Point{0.5, 0.5}, KeywordSet{1});
  d.Add(Point{0.9, 0.9}, KeywordSet{2});
  TempFile file("topk_ties");
  auto pager = Pager::Create(file.path()).value();
  BufferPool pool(pager.get(), 1u << 20);
  SetRTree::Options options;
  options.capacity = 4;
  auto tree = SetRTree::BulkLoad(d, &pool, options).value();
  SpatialKeywordQuery q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet{1};
  q.k = 5;
  q.alpha = 0.5;
  const auto top = IndexTopK(*tree, q).value();
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(top[i].id, i);
}

TEST_F(TopKTest, IndexRankOfScoreMatchesBruteForce) {
  const SpatialKeywordQuery q = Query();
  for (ObjectId id : std::vector<ObjectId>{0, 17, 101, 249}) {
    const double score = Score(dataset_.object(id), q, dataset_.diagonal());
    bool exceeded = false;
    const uint32_t rank =
        IndexRankOfScore(*tree_, q, score, 0, &exceeded).value();
    EXPECT_FALSE(exceeded);
    EXPECT_EQ(rank, BruteForceRank(dataset_, q, id));
  }
}

TEST_F(TopKTest, IndexRankOfScoreGivesUpAtLimit) {
  const SpatialKeywordQuery q = Query();
  // Worst-ranked object: use a score below everything.
  bool exceeded = false;
  const uint32_t rank =
      IndexRankOfScore(*tree_, q, -1.0, 10, &exceeded).value();
  EXPECT_TRUE(exceeded);
  EXPECT_EQ(rank, 11u);
}

TEST_F(TopKTest, UnboundedKReturnsTheWholeStream) {
  // k is untrusted: k = UINT32_MAX must neither allocate by k nor stop
  // early — it returns every object, in stream order.
  SpatialKeywordQuery q = Query();
  q.k = std::numeric_limits<uint32_t>::max();
  const auto top = IndexTopK(*tree_, q);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  TopKIterator it(tree_.get(), q);
  std::optional<ScoredObject> next;
  size_t i = 0;
  for (;; ++i) {
    ASSERT_TRUE(it.Next(&next).ok());
    if (!next) break;
    ASSERT_LT(i, top.value().size());
    EXPECT_EQ(top.value()[i].id, next->id);
    EXPECT_EQ(top.value()[i].score, next->score);
  }
  EXPECT_EQ(i, dataset_.size());
  EXPECT_EQ(top.value().size(), dataset_.size());
}

// The floor-pruned walks against the unbounded stream, on datasets whose
// equal scores straddle capacity-4 leaves.

std::unique_ptr<SetRTree> BuildCapacity4(const Dataset& d, BufferPool* pool) {
  SetRTree::Options options;
  options.capacity = 4;
  return SetRTree::BulkLoad(d, pool, options).value();
}

// IndexTopK equals the first k objects of the unbounded stream: ids,
// bit-exact scores, and the node/object counters of exactly that prefix.
void ExpectTopKIsStreamPrefix(const TopKSource& tree, SpatialKeywordQuery q,
                              uint32_t k) {
  SCOPED_TRACE("k " + std::to_string(k));
  q.k = k;
  TraceRecorder stream_trace(0);
  std::vector<ScoredObject> prefix;
  {
    TopKIterator it(&tree, q, nullptr, true, &stream_trace);
    std::optional<ScoredObject> next;
    while (prefix.size() < k) {
      ASSERT_TRUE(it.Next(&next).ok());
      if (!next) break;
      prefix.push_back(*next);
    }
  }
  TraceRecorder topk_trace(0);
  const auto top = IndexTopK(tree, q, nullptr, true, &topk_trace);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top.value().size(), prefix.size());
  for (size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(top.value()[i].id, prefix[i].id) << "position " << i;
    EXPECT_EQ(top.value()[i].score, prefix[i].score) << "position " << i;
  }
  for (TraceCounter c : {TraceCounter::kNodesSeen, TraceCounter::kNodesVisited,
                         TraceCounter::kLeafObjectsScored}) {
    EXPECT_EQ(topk_trace.counter(c), stream_trace.counter(c))
        << TraceCounterName(c);
  }
}

// IndexRankOfScore with every object's score as the target (an existing,
// often shared, score) and with give-up limits equals BruteForceRank.
void ExpectRanksMatchBruteForce(const Dataset& d, const TopKSource& tree,
                                const SpatialKeywordQuery& q) {
  for (ObjectId id = 0; id < d.size(); ++id) {
    const double score = Score(d.object(id), q, d.diagonal());
    const uint32_t want = BruteForceRank(d, q, id);
    for (int64_t limit : {0, 1, 3, 10}) {
      SCOPED_TRACE("id " + std::to_string(id) + " limit " +
                   std::to_string(limit));
      bool exceeded = false;
      std::vector<ObjectId> dominators;
      const auto rank = IndexRankOfScore(tree, q, score, limit, &exceeded,
                                         nullptr, true, nullptr, &dominators);
      ASSERT_TRUE(rank.ok()) << rank.status().ToString();
      const bool over = limit > 0 && want > limit;
      EXPECT_EQ(exceeded, over);
      EXPECT_EQ(rank.value(), over ? static_cast<uint32_t>(limit) + 1 : want);
      EXPECT_EQ(dominators.size() + 1, rank.value());
    }
  }
}

TEST(TopKTiesTest, TiedRunsMatchTheStream) {
  const Dataset d = testing::TiedScoresDataset();
  TempFile file("topk_tied");
  auto pager = Pager::Create(file.path()).value();
  BufferPool pool(pager.get(), 1u << 20);
  const auto tree = BuildCapacity4(d, &pool);
  const uint32_t n = static_cast<uint32_t>(d.size());
  const std::vector<SpatialKeywordQuery> queries =
      testing::TiedScoresQueries(d);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SCOPED_TRACE("query " + std::to_string(qi));
    for (uint32_t k : {1u, 5u, n - 1, n, n + 3}) {
      ExpectTopKIsStreamPrefix(*tree, queries[qi], k);
    }
    ExpectRanksMatchBruteForce(d, *tree, queries[qi]);
  }
}

TEST(TopKTiesTest, SeededDuplicateGridsMatchTheStream) {
  // 40 objects on a 3x3 grid with 3 documents: most scores are shared, ids
  // land in random order, and every k up to N + 3 is cut.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Dataset d;
    const KeywordSet docs[] = {KeywordSet{1, 2}, KeywordSet{2},
                               KeywordSet{3}};
    for (int i = 0; i < 40; ++i) {
      d.Add(Point{0.25 * static_cast<double>(1 + rng.NextUint64(3)),
                  0.25 * static_cast<double>(1 + rng.NextUint64(3))},
            docs[rng.NextUint64(3)]);
    }
    TempFile file("topk_grid");
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 1u << 20);
    const auto tree = BuildCapacity4(d, &pool);
    SpatialKeywordQuery q;
    q.loc = Point{0.25 * static_cast<double>(1 + rng.NextUint64(3)),
                  0.25 * static_cast<double>(1 + rng.NextUint64(3))};
    q.doc = docs[rng.NextUint64(3)];
    q.alpha = 0.5;
    for (uint32_t k = 1; k <= d.size() + 3; ++k) {
      ExpectTopKIsStreamPrefix(*tree, q, k);
    }
    ExpectRanksMatchBruteForce(d, *tree, q);
  }
}

TEST_F(TopKTest, IoErrorsPropagate) {
  ASSERT_TRUE(pool_->InvalidateAll().ok());
  pager_->set_read_fault_hook(
      [](PageId) { return Status::IoError("injected"); });
  TopKIterator it(tree_.get(), Query());
  std::optional<ScoredObject> next;
  const Status s = it.Next(&next);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  pager_->set_read_fault_hook(nullptr);
}

}  // namespace
}  // namespace wsk
