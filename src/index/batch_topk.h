// Multi-query best-first top-k: one shared index walk for N queries
// (docs/BATCHING.md).
//
// Each query keeps its own SearchFrontier and result list running exactly
// the solo IndexTopK semantics — same SearchEntryLess tie-breaks, same
// pop order, same k-floor, same early termination at its own kth score —
// so every query's top-k is bit-identical to IndexTopK run alone. The
// sharing is purely physical: a round-based scheduler drains each query's
// ready object emissions, then groups the still-active queries by the node
// at the top of their frontiers and performs one ExpandNodeBatch per
// distinct node, amortizing the page read, node decode, and cache probe
// across every query that was about to open that node. Queries whose frontiers
// diverge simply stop sharing; their walks degrade gracefully to solo
// cost plus negligible bookkeeping.
//
// A query leaves the walk the moment its own k results have emitted (its
// kth score has pruned its remaining frontier) or its cancel token fires;
// cancellation and deadlines are honored at node-visit granularity, the
// same unit of I/O the solo iterator checks at.
#ifndef WSK_INDEX_BATCH_TOPK_H_
#define WSK_INDEX_BATCH_TOPK_H_

#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "data/query.h"
#include "index/topk.h"
#include "observability/trace.h"

namespace wsk {

// One query's slot in a batched traversal. `query` is borrowed and must
// outlive the call; `cancel` is optional (borrowed).
struct BatchTopKRequest {
  const SpatialKeywordQuery* query = nullptr;
  const CancelToken* cancel = nullptr;
};

struct BatchTopKResult {
  Status status;                  // kCancelled / kDeadlineExceeded / IO error
  std::vector<ScoredObject> topk;  // valid only when status.ok()
};

// Runs every request to completion over one shared traversal of `source`.
// results[i] corresponds to requests[i]; a failed slot does not disturb the
// others. `trace` (optional, borrowed) receives one kBatchTopK span, the
// aggregate node/object counters of the whole batch, and the batch.*
// amortization counters.
std::vector<BatchTopKResult> BatchedIndexTopK(
    const TopKSource& source, const std::vector<BatchTopKRequest>& requests,
    bool use_cache = true, TraceRecorder* trace = nullptr);

}  // namespace wsk

#endif  // WSK_INDEX_BATCH_TOPK_H_
