// The per-layer ledger of the serving benchmark, measured from outside the
// program: decorators that time every call into a layer's public interface
// and forward it unchanged.
//
//   TimedBackend  wraps a QueryBackend (service -> backend boundary).
//   TimedSource   wraps a TopKSource (traversal -> node expansion boundary).
//
// Both decorators must forward every virtual of the interface they wrap;
// a virtual left to its base default would run a different program (the
// default QueryBackend::TopKBatch, for one, answers items solo instead of
// through the shared batched walk). `wsk_perfbench --selftest` checks that
// the wrapped and unwrapped programs give identical answers and counters.
#ifndef WSK_PERFBENCH_LEDGER_H_
#define WSK_PERFBENCH_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/backend.h"
#include "index/topk.h"

namespace wsk::perfbench {

// Monotone nanosecond total plus call count, safe for concurrent writers.
struct CallClock {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> ns{0};
  void Add(uint64_t elapsed_ns, uint64_t n = 1) {
    calls.fetch_add(n, std::memory_order_relaxed);
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  }
  double mean_ms() const {
    const uint64_t c = calls.load(std::memory_order_relaxed);
    return c == 0 ? 0.0 : ns.load(std::memory_order_relaxed) / 1e6 / c;
  }
};

class TimedBackend : public QueryBackend {
 public:
  // `inner` is borrowed and must outlive the decorator.
  explicit TimedBackend(const QueryBackend* inner) : inner_(inner) {}

  StatusOr<std::vector<ScoredObject>> TopK(
      const SpatialKeywordQuery& query, const CancelToken* cancel = nullptr,
      TraceRecorder* trace = nullptr) const override;
  std::vector<BackendBatchResult> TopKBatch(
      const std::vector<BackendBatchItem>& items,
      TraceRecorder* trace = nullptr) const override;
  StatusOr<WhyNotResult> Answer(WhyNotAlgorithm algorithm,
                                const SpatialKeywordQuery& query,
                                const std::vector<ObjectId>& missing,
                                const WhyNotOptions& options) const override;

  BackendIoSnapshot io_snapshot() const override {
    return inner_->io_snapshot();
  }
  NodeCache* node_cache() const override { return inner_->node_cache(); }
  uint64_t dataset_version() const override {
    return inner_->dataset_version();
  }
  uint64_t topology_fingerprint() const override {
    return inner_->topology_fingerprint();
  }
  std::vector<uint64_t> version_vector() const override {
    return inner_->version_vector();
  }
  bool TopKCacheValid(const std::vector<uint64_t>& versions,
                      const SpatialKeywordQuery& query,
                      const std::vector<ScoredObject>& results) const override {
    return inner_->TopKCacheValid(versions, query, results);
  }
  bool WhyNotCacheValid(const std::vector<uint64_t>& versions) const override {
    return inner_->WhyNotCacheValid(versions);
  }

  StatusOr<ObjectId> Insert(
      Point loc, const std::vector<std::string>& keywords) const override;
  Status Update(ObjectId id, Point loc,
                const std::vector<std::string>& keywords) const override;
  Status Delete(ObjectId id) const override;

  SegmentCountersSnapshot segment_counters() const override {
    return inner_->segment_counters();
  }
  ShardCountersSnapshot shard_counters() const override {
    return inner_->shard_counters();
  }

  // --- the ledger ---

  // Solo top-k calls.
  const CallClock& topk() const { return topk_; }
  // TopKBatch calls: `calls` counts batches, `ns` their wall time.
  const CallClock& batch() const { return batch_; }
  uint64_t batch_items() const {
    return batch_items_.load(std::memory_order_relaxed);
  }
  // Sum over batched requests of the batch call each one waited on, in ns
  // (a request's backend time is its whole batch's wall time).
  uint64_t batch_item_ns() const {
    return batch_item_ns_.load(std::memory_order_relaxed);
  }
  const CallClock& whynot(WhyNotAlgorithm algorithm) const {
    return whynot_[static_cast<size_t>(algorithm)];
  }
  const CallClock& writes() const { return writes_; }

  // Backend time of every top-k request, solo or batched, per request.
  double topk_request_ms() const;
  // Total backend time of all calls, in ms (writes included), summed per
  // request: the part of the requests' latency spent below the service.
  double request_backend_ms() const;

 private:
  const QueryBackend* const inner_;
  mutable CallClock topk_;
  mutable CallClock batch_;
  mutable std::atomic<uint64_t> batch_items_{0};
  mutable std::atomic<uint64_t> batch_item_ns_{0};
  mutable CallClock whynot_[3];
  mutable CallClock writes_;
};

// Forwards a TopKSource and times every node expansion. Single-threaded:
// the direct replay owns one instance.
class TimedSource : public TopKSource {
 public:
  // `inner` is borrowed and must outlive the decorator.
  explicit TimedSource(const TopKSource* inner) : inner_(inner) {}

  PageId SearchRoot() const override { return inner_->SearchRoot(); }
  Status ExpandNode(PageId node, const SpatialKeywordQuery& query,
                    bool use_cache,
                    std::vector<SearchEntry>* out) const override;
  Status ExpandNodeBatch(PageId node, const SpatialKeywordQuery* const* queries,
                         std::vector<SearchEntry>* const* outs, size_t count,
                         bool use_cache) const override;

  uint64_t expansions() const { return expansions_; }
  uint64_t objects_scored() const { return objects_scored_; }
  uint64_t expand_ns() const { return expand_ns_; }

 private:
  const TopKSource* const inner_;
  mutable uint64_t expansions_ = 0;
  mutable uint64_t objects_scored_ = 0;  // object entries produced
  mutable uint64_t expand_ns_ = 0;
};

}  // namespace wsk::perfbench

#endif  // WSK_PERFBENCH_LEDGER_H_
