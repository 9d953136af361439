#include "index/topk.h"

namespace wsk {

Status TopKSource::ExpandNodeBatch(PageId node,
                                   const SpatialKeywordQuery* const* queries,
                                   std::vector<SearchEntry>* const* outs,
                                   size_t count, bool use_cache) const {
  for (size_t i = 0; i < count; ++i) {
    WSK_RETURN_IF_ERROR(ExpandNode(node, *queries[i], use_cache, outs[i]));
  }
  return Status::Ok();
}

SearchFrontier::SearchFrontier(PageId root) {
  if (root == kInvalidPageId) return;
  // The root has no parent entry to bound it; expand it unconditionally.
  SearchEntry entry;
  entry.bound = std::numeric_limits<double>::infinity();
  entry.node = root;
  heap_.push(entry);
  ++nodes_seen_;
}

void SearchFrontier::TrackBest(double score) {
  if (best_.size() < keep_best_) {
    best_.push(score);
    if (best_.size() < keep_best_) return;
  } else if (score > best_.top()) {
    best_.pop();
    best_.push(score);
  } else {
    return;
  }
  RaiseFloor(best_.top());
}

void SearchFrontier::ReportCounters(TraceRecorder* trace) const {
  if (trace == nullptr) return;
  // nodes_pruned is derived (seen - visited): nodes dropped under the floor
  // plus heap leftovers at early termination.
  trace->Add(TraceCounter::kNodesSeen, nodes_seen_);
  trace->Add(TraceCounter::kNodesVisited, nodes_visited_);
  trace->Add(TraceCounter::kNodesPruned, nodes_seen_ - nodes_visited_);
  trace->Add(TraceCounter::kLeafObjectsScored, objects_scored_);
}

TopKIterator::TopKIterator(const TopKSource* source, SpatialKeywordQuery query,
                           const CancelToken* cancel, bool use_cache,
                           TraceRecorder* trace)
    : source_(source),
      query_(std::move(query)),
      cancel_(cancel),
      use_cache_(use_cache),
      trace_(trace),
      frontier_(source_->SearchRoot()) {}

TopKIterator::~TopKIterator() { frontier_.ReportCounters(trace_); }

Status TopKIterator::Next(std::optional<ScoredObject>* out) {
  out->reset();
  while (!frontier_.empty()) {
    const SearchEntry top = frontier_.top();
    frontier_.Pop();
    if (top.is_object) {
      ++num_emitted_;
      *out = ScoredObject{top.object, top.bound};
      return Status::Ok();
    }
    if (cancel_ != nullptr) WSK_RETURN_IF_ERROR(cancel_->Check());
    scratch_.clear();
    WSK_RETURN_IF_ERROR(
        source_->ExpandNode(top.node, query_, use_cache_, &scratch_));
    frontier_.PushChildren(scratch_);
  }
  return Status::Ok();
}

StatusOr<std::vector<ScoredObject>> IndexTopK(
    const TopKSource& source, const SpatialKeywordQuery& query,
    const CancelToken* cancel, bool use_cache, TraceRecorder* trace) {
  TraceSpan span(trace, TraceStage::kTopK);
  TopKIterator it(&source, query, cancel, use_cache, trace);
  it.LimitTo(query.k);
  // Grows with the objects emitted: `k` is untrusted and may exceed the
  // dataset by far.
  std::vector<ScoredObject> result;
  std::optional<ScoredObject> next;
  while (result.size() < query.k) {
    WSK_RETURN_IF_ERROR(it.Next(&next));
    if (!next) break;
    result.push_back(*next);
  }
  return result;
}

StatusOr<uint32_t> IndexRankOfScore(const TopKSource& source,
                                    const SpatialKeywordQuery& query,
                                    double target_score,
                                    int64_t give_up_after_rank,
                                    bool* exceeded,
                                    const CancelToken* cancel, bool use_cache,
                                    TraceRecorder* trace,
                                    std::vector<ObjectId>* dominators,
                                    uint64_t* nodes_expanded) {
  *exceeded = false;
  TraceSpan span(trace, TraceStage::kRankQuery);
  TopKIterator it(&source, query, cancel, use_cache, trace);
  it.StopAtOrBelow(target_score);
  uint32_t strictly_better = 0;
  std::optional<ScoredObject> next;
  Status status;
  for (;;) {
    status = it.Next(&next);
    if (!status.ok() || !next || next->score <= target_score) break;
    ++strictly_better;
    if (dominators != nullptr) dominators->push_back(next->id);
    if (give_up_after_rank > 0 &&
        static_cast<int64_t>(strictly_better) + 1 > give_up_after_rank) {
      *exceeded = true;
      break;
    }
  }
  if (nodes_expanded != nullptr) *nodes_expanded += it.num_expanded();
  if (!status.ok()) return status;
  return strictly_better + 1;
}

}  // namespace wsk
