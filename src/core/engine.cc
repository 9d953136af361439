#include "core/engine.h"

#include "core/whynot_bs.h"
#include "core/whynot_kcr.h"
#include "index/batch_topk.h"
#include "index/topk.h"
#include "observability/trace.h"

namespace wsk {

const char* WhyNotAlgorithmName(WhyNotAlgorithm algorithm) {
  switch (algorithm) {
    case WhyNotAlgorithm::kBasic:
      return "BS";
    case WhyNotAlgorithm::kAdvanced:
      return "AdvancedBS";
    case WhyNotAlgorithm::kKcrBased:
      return "KcRBased";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<WhyNotEngine>> WhyNotEngine::Build(
    const Dataset* dataset, const Config& config) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("dataset is null");
  }
  std::unique_ptr<WhyNotEngine> engine(new WhyNotEngine());
  engine->dataset_ = dataset;
  engine->config_ = config;
  if (config.node_cache_bytes > 0) {
    engine->node_cache_ = std::make_unique<NodeCache>(config.node_cache_bytes);
  }
  IndexPair::Params params;
  params.work_dir = config.work_dir;
  params.page_size = config.page_size;
  params.buffer_bytes = config.buffer_bytes;
  params.tree.capacity = config.node_capacity;
  params.tree.model = config.model;
  params.mmap_reads = config.mmap_reads;
  StatusOr<std::unique_ptr<IndexPair>> indexes =
      IndexPair::Build(dataset->objects(), dataset->diagonal(), params,
                       engine->node_cache_.get());
  if (!indexes.ok()) return indexes.status();
  engine->indexes_ = std::move(indexes).value();
  engine->ResetIoStats();
  return engine;
}

StatusOr<WhyNotResult> WhyNotEngine::Answer(
    WhyNotAlgorithm algorithm, const SpatialKeywordQuery& query,
    const std::vector<ObjectId>& missing, const WhyNotOptions& options) const {
  QueryScope scope(this);
  if (options.cancel != nullptr) {
    WSK_RETURN_IF_ERROR(options.cancel->Check());
  }
  // Root span: encloses the whole invocation so every stage span nests
  // inside it (the coverage property the trace tests assert).
  TraceSpan root_span(options.trace, TraceStage::kQuery);
  const IoStats& io =
      algorithm == WhyNotAlgorithm::kKcrBased ? kcr_io() : setr_io();
  const uint64_t reads_before = io.physical_reads();

  StatusOr<WhyNotResult> result = Status::Internal("unreachable");
  switch (algorithm) {
    case WhyNotAlgorithm::kBasic: {
      WhyNotOptions plain = options;
      plain.opt_early_stop = false;
      plain.opt_enumeration_order = false;
      plain.opt_keyword_filtering = false;
      result = AnswerWhyNotBasic(*dataset_, setr_tree(), query, missing,
                                 plain);
      break;
    }
    case WhyNotAlgorithm::kAdvanced:
      result = AnswerWhyNotBasic(*dataset_, setr_tree(), query, missing,
                                 options);
      break;
    case WhyNotAlgorithm::kKcrBased:
      result = AnswerWhyNotKcr(*dataset_, kcr_tree(), query, missing,
                               options);
      break;
  }
  if (result.ok()) {
    result.value().stats.io_reads = io.physical_reads() - reads_before;
  }
  return result;
}

StatusOr<std::vector<ScoredObject>> WhyNotEngine::TopK(
    const SpatialKeywordQuery& query, const CancelToken* cancel,
    TraceRecorder* trace) const {
  QueryScope scope(this);
  TraceSpan root_span(trace, TraceStage::kQuery);
  return IndexTopK(setr_tree(), query, cancel, /*use_cache=*/true, trace);
}

std::vector<BackendBatchResult> WhyNotEngine::TopKBatch(
    const std::vector<BackendBatchItem>& items, TraceRecorder* trace) const {
  QueryScope scope(this);
  TraceSpan root_span(trace, TraceStage::kQuery);
  std::vector<BatchTopKRequest> requests(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    requests[i].query = items[i].query;
    requests[i].cancel = items[i].cancel;
  }
  std::vector<BatchTopKResult> raw =
      BatchedIndexTopK(setr_tree(), requests, /*use_cache=*/true, trace);
  std::vector<BackendBatchResult> results(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    results[i].status = std::move(raw[i].status);
    results[i].topk = std::move(raw[i].topk);
  }
  return results;
}

StatusOr<uint32_t> WhyNotEngine::Rank(const SpatialKeywordQuery& query,
                                      ObjectId object) const {
  QueryScope scope(this);
  if (object >= dataset_->size()) {
    return Status::InvalidArgument("object id out of range");
  }
  const double score =
      Score(dataset_->object(object), query, setr_tree().diagonal());
  bool exceeded = false;
  return IndexRankOfScore(setr_tree(), query, score,
                          /*give_up_after_rank=*/0, &exceeded);
}

StatusOr<ObjectId> WhyNotEngine::ObjectAtPosition(
    const SpatialKeywordQuery& query, uint32_t position) const {
  QueryScope scope(this);
  if (position == 0) {
    return Status::InvalidArgument("positions are 1-based");
  }
  TopKIterator it(&setr_tree(), query);
  std::optional<ScoredObject> next;
  for (uint32_t i = 0; i < position; ++i) {
    WSK_RETURN_IF_ERROR(it.Next(&next));
    if (!next) {
      return Status::NotFound("dataset has fewer objects than the position");
    }
  }
  return next->id;
}

BackendIoSnapshot WhyNotEngine::io_snapshot() const {
  const IoStats& setr = setr_io();
  const IoStats& kcr = kcr_io();
  BackendIoSnapshot snap;
  snap.setr_physical = setr.physical_reads();
  snap.kcr_physical = kcr.physical_reads();
  snap.setr_logical = setr.logical_reads();
  snap.kcr_logical = kcr.logical_reads();
  snap.setr_mapped = setr.mapped_reads();
  snap.kcr_mapped = kcr.mapped_reads();
  snap.setr_cache_hits = setr.node_cache_hits();
  snap.kcr_cache_hits = kcr.node_cache_hits();
  snap.setr_cache_misses = setr.node_cache_misses();
  snap.kcr_cache_misses = kcr.node_cache_misses();
  return snap;
}

Status WhyNotEngine::DropCaches() const {
  WSK_CHECK_MSG(inflight_queries() == 0,
                "DropCaches requires exclusive access (%d queries in flight)",
                inflight_queries());
  if (node_cache_ != nullptr) node_cache_->Clear();
  return indexes_->InvalidatePools();
}

void WhyNotEngine::ResetIoStats() const {
  WSK_CHECK_MSG(inflight_queries() == 0,
                "ResetIoStats requires exclusive access (%d queries in flight)",
                inflight_queries());
  setr_io().Reset();
  kcr_io().Reset();
}

}  // namespace wsk
