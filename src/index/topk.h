// Incremental best-first spatial keyword top-k search.
//
// Both the SetR-tree (Section IV-B) and the KcR-tree (Section V-A) expose
// the TopKSource interface: given a node, produce child search entries
// whose `bound` is an upper bound on the ranking score ST (Eqn 1) of any
// object below the child (exact for object entries). TopKIterator then
// emits objects one at a time in non-increasing score order — exactly what
// the why-not algorithms need to "process the query until the missing
// object appears" or until the Eqn 6 rank bound is exceeded.
#ifndef WSK_INDEX_TOPK_H_
#define WSK_INDEX_TOPK_H_

#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "data/query.h"
#include "observability/trace.h"
#include "storage/pager.h"

namespace wsk {

struct SearchEntry {
  double bound = 0.0;      // score upper bound (exact for objects)
  bool is_object = false;
  PageId node = kInvalidPageId;        // when !is_object
  ObjectId object = kInvalidObjectId;  // when is_object
};

// Max-heap order: higher bound first; at equal bound objects before nodes
// and lower ids first, so the emission order is fully deterministic.
struct SearchEntryLess {
  bool operator()(const SearchEntry& a, const SearchEntry& b) const {
    if (a.bound != b.bound) return a.bound < b.bound;
    if (a.is_object != b.is_object) return !a.is_object;
    if (a.is_object) return a.object > b.object;
    return a.node > b.node;
  }
};

// An index capable of best-first spatial keyword search.
class TopKSource {
 public:
  virtual ~TopKSource() = default;

  // Root node slot, or kInvalidPageId for an empty index.
  virtual PageId SearchRoot() const = 0;

  // Appends one SearchEntry per child of `node` to `out`. `use_cache`
  // selects whether an attached decoded-node cache may serve the node;
  // with false the expansion behaves exactly like the uncached read path.
  virtual Status ExpandNode(PageId node, const SpatialKeywordQuery& query,
                            bool use_cache,
                            std::vector<SearchEntry>* out) const = 0;

  // Expands `node` once for `count` queries at a time: outs[i] receives
  // exactly the entries ExpandNode(node, *queries[i], ...) would append —
  // bit-identical bounds, same order — so a batched traversal can substitute
  // one shared expansion for N solo ones (docs/BATCHING.md). The base
  // implementation loops over ExpandNode; tree sources override it to
  // decode/pin the node once and score the whole batch against it.
  virtual Status ExpandNodeBatch(PageId node,
                                 const SpatialKeywordQuery* const* queries,
                                 std::vector<SearchEntry>* const* outs,
                                 size_t count, bool use_cache) const;
};

// The frontier of one best-first walk over a TopKSource: the max-heap of
// pending entries, a score floor, and the walk's node/object counters.
// PushChildren counts every child exactly as an unfloored walk would
// (kNodesSeen / kLeafObjectsScored count entries produced, kept or not),
// then drops the child if its bound is strictly below the floor. The floor
// only rises; at −∞ (the default) nothing is dropped.
//
// Dropping is exact for a walk that stops early: an entry below the floor
// pops after every entry at or above it, so a walk that stops before
// reaching the floor never sees the difference.
class SearchFrontier {
 public:
  // Seeds the frontier with `root`; an invalid root leaves it empty.
  explicit SearchFrontier(PageId root);

  // Keeps the floor at the k-th best object bound pushed so far, for a
  // walk that emits at most `k` objects (k = 0 tracks nothing). The scores
  // are tracked in a min-heap that grows with pushes, never with k.
  void KeepBest(uint64_t k) { keep_best_ = k; }

  // Raises the floor to `floor` (no-op if it is already higher, or NaN).
  void RaiseFloor(double floor) {
    if (floor > floor_) floor_ = floor;
  }

  bool empty() const { return heap_.empty(); }
  const SearchEntry& top() const { return heap_.top(); }
  void Pop() { heap_.pop(); }

  // Counts one node expansion and pushes the children it produced.
  void PushChildren(const std::vector<SearchEntry>& children) {
    ++nodes_visited_;
    for (const SearchEntry& child : children) Push(child);
  }

  uint64_t nodes_visited() const { return nodes_visited_; }

  // Adds the node/object counters to `trace` (no-op when null).
  void ReportCounters(TraceRecorder* trace) const;

 private:
  void Push(const SearchEntry& child) {
    if (child.is_object) {
      ++objects_scored_;
    } else {
      ++nodes_seen_;
    }
    if (child.bound < floor_) return;
    heap_.push(child);
    if (child.is_object && keep_best_ > 0) TrackBest(child.bound);
  }
  void TrackBest(double score);

  std::priority_queue<SearchEntry, std::vector<SearchEntry>, SearchEntryLess>
      heap_;
  double floor_ = -std::numeric_limits<double>::infinity();
  uint64_t keep_best_ = 0;
  // The best min(keep_best_, pushed) object scores, worst on top.
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      best_;
  // Plain members (one walk is single-threaded).
  uint64_t nodes_seen_ = 0;
  uint64_t nodes_visited_ = 0;
  uint64_t objects_scored_ = 0;
};

// Streams objects in (score desc, id asc) order. Typical use:
//
//   TopKIterator it(tree, query);
//   std::optional<ScoredObject> next;
//   while (it.Next(&next).ok() && next) { ... }
class TopKIterator {
 public:
  // `cancel` (optional, borrowed; must outlive the iterator) is consulted
  // before every node expansion — the traversal's unit of I/O — so a
  // cancelled or timed-out search unwinds within one page visit. `trace`
  // (optional, borrowed) receives the traversal's node/object counters
  // when the iterator is destroyed.
  TopKIterator(const TopKSource* source, SpatialKeywordQuery query,
               const CancelToken* cancel = nullptr, bool use_cache = true,
               TraceRecorder* trace = nullptr);
  ~TopKIterator();

  TopKIterator(const TopKIterator&) = delete;
  TopKIterator& operator=(const TopKIterator&) = delete;

  // Bounded streams (call before the first Next). The stream starts
  // exactly as the unbounded one — same ids, scores, tie order, nodes
  // expanded — and ends early:
  //   LimitTo(k): after at most k objects. Objects past the k-th may be
  //     missing; the caller must stop after k.
  //   StopAtOrBelow(s): after the last object scoring strictly above s.
  void LimitTo(uint64_t k) { frontier_.KeepBest(k); }
  void StopAtOrBelow(double score) {
    frontier_.RaiseFloor(
        std::nextafter(score, std::numeric_limits<double>::infinity()));
  }

  // Sets *out to the next object, or nullopt when the index is exhausted.
  // Returns kCancelled / kDeadlineExceeded when the cancel token fired.
  Status Next(std::optional<ScoredObject>* out);

  // Objects emitted so far.
  size_t num_emitted() const { return num_emitted_; }

  // Nodes expanded so far (pages/cached nodes materialized). Counted even
  // without a trace recorder — the why-not stats report it per query.
  uint64_t num_expanded() const { return frontier_.nodes_visited(); }

 private:
  const TopKSource* source_;
  SpatialKeywordQuery query_;
  const CancelToken* cancel_ = nullptr;
  bool use_cache_ = true;
  TraceRecorder* trace_ = nullptr;
  SearchFrontier frontier_;
  std::vector<SearchEntry> scratch_;
  size_t num_emitted_ = 0;
};

// Convenience wrappers over the iterator.

// The k best objects: the first k of the unbounded stream, bit for bit.
// The walk never keeps an entry below the k-th best object score pushed so
// far, and memory grows with the objects pushed, never with k, so any k is
// safe (k beyond the dataset returns every object).
StatusOr<std::vector<ScoredObject>> IndexTopK(
    const TopKSource& source, const SpatialKeywordQuery& query,
    const CancelToken* cancel = nullptr, bool use_cache = true,
    TraceRecorder* trace = nullptr);

// Rank (Eqn 3) of an object whose exact score is `target_score`: counts
// the objects scoring strictly above it and returns that count + 1. No
// entry with bound <= `target_score` ever enters the frontier, so the walk
// ends once nothing strictly better can remain. If `give_up_after_rank` > 0
// and more than that many strictly-better objects are seen, stops early and
// reports the count so far + 1 with `*exceeded = true` (the Section IV-C1
// early stop). `dominators` (optional) receives the ids of the counted
// objects in stream order; `*nodes_expanded` (optional) is incremented by
// the nodes this walk materialized, also when it fails. `trace` receives a
// rank_query span plus the node/object counters.
StatusOr<uint32_t> IndexRankOfScore(const TopKSource& source,
                                    const SpatialKeywordQuery& query,
                                    double target_score,
                                    int64_t give_up_after_rank,
                                    bool* exceeded,
                                    const CancelToken* cancel = nullptr,
                                    bool use_cache = true,
                                    TraceRecorder* trace = nullptr,
                                    std::vector<ObjectId>* dominators = nullptr,
                                    uint64_t* nodes_expanded = nullptr);

}  // namespace wsk

#endif  // WSK_INDEX_TOPK_H_
