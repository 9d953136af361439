#include "ledger.h"

#include <chrono>

namespace wsk::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

StatusOr<std::vector<ScoredObject>> TimedBackend::TopK(
    const SpatialKeywordQuery& query, const CancelToken* cancel,
    TraceRecorder* trace) const {
  const Clock::time_point start = Clock::now();
  StatusOr<std::vector<ScoredObject>> result =
      inner_->TopK(query, cancel, trace);
  topk_.Add(NsSince(start));
  return result;
}

std::vector<BackendBatchResult> TimedBackend::TopKBatch(
    const std::vector<BackendBatchItem>& items, TraceRecorder* trace) const {
  const Clock::time_point start = Clock::now();
  std::vector<BackendBatchResult> results = inner_->TopKBatch(items, trace);
  const uint64_t ns = NsSince(start);
  batch_.Add(ns);
  batch_items_.fetch_add(items.size(), std::memory_order_relaxed);
  batch_item_ns_.fetch_add(ns * items.size(), std::memory_order_relaxed);
  return results;
}

StatusOr<WhyNotResult> TimedBackend::Answer(
    WhyNotAlgorithm algorithm, const SpatialKeywordQuery& query,
    const std::vector<ObjectId>& missing, const WhyNotOptions& options) const {
  const Clock::time_point start = Clock::now();
  StatusOr<WhyNotResult> result =
      inner_->Answer(algorithm, query, missing, options);
  whynot_[static_cast<size_t>(algorithm)].Add(NsSince(start));
  return result;
}

StatusOr<ObjectId> TimedBackend::Insert(
    Point loc, const std::vector<std::string>& keywords) const {
  const Clock::time_point start = Clock::now();
  StatusOr<ObjectId> result = inner_->Insert(loc, keywords);
  writes_.Add(NsSince(start));
  return result;
}

Status TimedBackend::Update(ObjectId id, Point loc,
                            const std::vector<std::string>& keywords) const {
  const Clock::time_point start = Clock::now();
  Status status = inner_->Update(id, loc, keywords);
  writes_.Add(NsSince(start));
  return status;
}

Status TimedBackend::Delete(ObjectId id) const {
  const Clock::time_point start = Clock::now();
  Status status = inner_->Delete(id);
  writes_.Add(NsSince(start));
  return status;
}

double TimedBackend::topk_request_ms() const {
  const uint64_t requests = topk_.calls.load() + batch_items();
  if (requests == 0) return 0.0;
  return (topk_.ns.load() + batch_item_ns()) / 1e6 / requests;
}

double TimedBackend::request_backend_ms() const {
  uint64_t ns = topk_.ns.load() + batch_item_ns() + writes_.ns.load();
  for (const CallClock& clock : whynot_) ns += clock.ns.load();
  return ns / 1e6;
}

Status TimedSource::ExpandNode(PageId node, const SpatialKeywordQuery& query,
                               bool use_cache,
                               std::vector<SearchEntry>* out) const {
  const size_t before = out->size();
  const Clock::time_point start = Clock::now();
  Status status = inner_->ExpandNode(node, query, use_cache, out);
  expand_ns_ += NsSince(start);
  ++expansions_;
  for (size_t i = before; i < out->size(); ++i) {
    if ((*out)[i].is_object) ++objects_scored_;
  }
  return status;
}

Status TimedSource::ExpandNodeBatch(PageId node,
                                    const SpatialKeywordQuery* const* queries,
                                    std::vector<SearchEntry>* const* outs,
                                    size_t count, bool use_cache) const {
  std::vector<size_t> before(count);
  for (size_t i = 0; i < count; ++i) before[i] = outs[i]->size();
  const Clock::time_point start = Clock::now();
  Status status =
      inner_->ExpandNodeBatch(node, queries, outs, count, use_cache);
  expand_ns_ += NsSince(start);
  ++expansions_;
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = before[i]; j < outs[i]->size(); ++j) {
      if ((*outs[i])[j].is_object) ++objects_scored_;
    }
  }
  return status;
}

}  // namespace wsk::perfbench
