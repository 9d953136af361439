// Per-shard pruning metadata: an MBR plus keyword union/intersection sets,
// exactly the summary a SetR-tree inner node carries (Section IV-B), lifted
// to whole shards. ShardUpperBound evaluates the Theorem 1 MaxScore bound
// against the summary, so a shard whose bound cannot beat the running
// global kth score is never visited (docs/SHARDING.md "Bound pruning").
//
// The summary is maintained conservatively under mutations: inserts and
// updates extend the MBR, grow the union, and shrink the intersection;
// deletes leave it untouched. Every transition keeps mbr ⊇ {live
// locations}, uni ⊇ every live doc, and inter ⊆ every live doc, so the
// bound stays an upper bound for the shard's whole lifetime (it only gets
// looser, never unsound).
#ifndef WSK_SHARD_SHARD_SUMMARY_H_
#define WSK_SHARD_SHARD_SUMMARY_H_

#include <limits>

#include "common/geometry.h"
#include "data/query.h"
#include "text/keyword_set.h"
#include "text/similarity.h"

namespace wsk {

struct ShardSummary {
  Rect mbr;
  KeywordSet uni;    // superset of every live document in the shard
  KeywordSet inter;  // subset of every live document in the shard
  bool has_objects = false;
};

inline void AbsorbObject(ShardSummary* summary, Point loc,
                         const KeywordSet& doc) {
  summary->mbr.Extend(loc);
  if (!summary->has_objects) {
    summary->uni = doc;
    summary->inter = doc;
    summary->has_objects = true;
  } else {
    // Skip the rebuild when the union already holds `doc` (the common case
    // once it saturates); re-merging every document is quadratic in the
    // shard's vocabulary.
    if (summary->uni.IntersectionSize(doc) != doc.size()) {
      summary->uni = summary->uni.Union(doc);
    }
    summary->inter = summary->inter.Intersect(doc);
  }
}

// Upper-bounds Score(o, query) over every object the shard can contain
// (Theorem 1 applied to the shard summary): the spatial term uses MinDist
// to the MBR, the textual term the same union/intersection bound the
// SetR-tree uses for inner nodes. Empty shards bound at -inf.
inline double ShardUpperBound(const ShardSummary& summary,
                              const SpatialKeywordQuery& query,
                              double diagonal) {
  if (!summary.has_objects) {
    return -std::numeric_limits<double>::infinity();
  }
  const double min_sdist = MinDist(query.loc, summary.mbr) / diagonal;
  const double tsim_bound = NodeSimilarityUpperBound(
      summary.uni.IntersectionSize(query.doc),
      summary.inter.UnionSize(query.doc), summary.inter.size(),
      query.doc.size(), query.model);
  return query.alpha * (1.0 - min_sdist) + (1.0 - query.alpha) * tsim_bound;
}

}  // namespace wsk

#endif  // WSK_SHARD_SHARD_SUMMARY_H_
