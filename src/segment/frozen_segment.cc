#include "segment/frozen_segment.h"

#include <atomic>

#include "common/macros.h"

namespace wsk {

StatusOr<std::shared_ptr<FrozenSegment>> FrozenSegment::Build(
    std::vector<SpatialObject> objects, double diagonal,
    const Options& options, NodeCache* node_cache,
    RetiredIoAccumulator* retired) {
  std::shared_ptr<FrozenSegment> segment(new FrozenSegment());
  segment->objects_ = std::move(objects);
  segment->retired_ = retired;

  const size_t n = segment->objects_.size();
  segment->index_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const bool inserted =
        segment->index_
            .emplace(segment->objects_[i].id, static_cast<uint32_t>(i))
            .second;
    WSK_CHECK_MSG(inserted, "duplicate object id in frozen segment");
  }
  segment->shadow_.reset(new std::atomic<uint64_t>[n > 0 ? n : 1]);
  for (size_t i = 0; i < n; ++i) {
    segment->shadow_[i].store(0, std::memory_order_relaxed);
  }

  IndexPair::Params params;
  params.work_dir = options.work_dir;
  params.file_prefix = "wsk_seg";
  params.page_size = options.page_size;
  params.buffer_bytes = options.buffer_bytes;
  params.tree.capacity = options.node_capacity;
  params.tree.model = options.model;
  params.mmap_reads = options.mmap_reads;
  StatusOr<std::unique_ptr<IndexPair>> indexes =
      IndexPair::Build(segment->objects_, diagonal, params, node_cache);
  if (!indexes.ok()) return indexes.status();
  segment->indexes_ = std::move(indexes).value();
  return segment;
}

// The pair's teardown erases both trees from the node cache and removes
// the files.
FrozenSegment::~FrozenSegment() {
  FoldIntoRetired();
  if (retired_ != nullptr) {
    retired_->segments_retired.fetch_add(1, std::memory_order_relaxed);
  }
}

const SpatialObject* FrozenSegment::Find(ObjectId id) const {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &objects_[it->second];
}

bool FrozenSegment::VisibleAt(ObjectId id, uint64_t seq) const {
  auto it = index_.find(id);
  if (it == index_.end()) return false;
  const uint64_t del = shadow_[it->second].load(std::memory_order_relaxed);
  return del == 0 || del > seq;
}

bool FrozenSegment::Shadow(ObjectId id, uint64_t del_seq) {
  auto it = index_.find(id);
  if (it == index_.end()) return false;
  uint64_t expected = 0;
  if (!shadow_[it->second].compare_exchange_strong(
          expected, del_seq, std::memory_order_release,
          std::memory_order_relaxed)) {
    return false;  // already tombstoned (earlier sequence wins)
  }
  shadow_total_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FrozenSegment::FoldIntoRetired() {
  if (retired_ == nullptr || indexes_ == nullptr) return;
  const IoStats::Snapshot s = setr_io().TakeSnapshot();
  const IoStats::Snapshot k = kcr_io().TakeSnapshot();
  retired_->setr_physical.fetch_add(
      s.physical_reads - folded_setr_.physical_reads,
      std::memory_order_relaxed);
  retired_->setr_logical.fetch_add(s.logical_reads - folded_setr_.logical_reads,
                                   std::memory_order_relaxed);
  retired_->setr_mapped.fetch_add(s.mapped_reads - folded_setr_.mapped_reads,
                                  std::memory_order_relaxed);
  retired_->setr_cache_hits.fetch_add(
      s.node_cache_hits - folded_setr_.node_cache_hits,
      std::memory_order_relaxed);
  retired_->setr_cache_misses.fetch_add(
      s.node_cache_misses - folded_setr_.node_cache_misses,
      std::memory_order_relaxed);
  retired_->kcr_physical.fetch_add(
      k.physical_reads - folded_kcr_.physical_reads, std::memory_order_relaxed);
  retired_->kcr_logical.fetch_add(k.logical_reads - folded_kcr_.logical_reads,
                                  std::memory_order_relaxed);
  retired_->kcr_mapped.fetch_add(k.mapped_reads - folded_kcr_.mapped_reads,
                                 std::memory_order_relaxed);
  retired_->kcr_cache_hits.fetch_add(
      k.node_cache_hits - folded_kcr_.node_cache_hits,
      std::memory_order_relaxed);
  retired_->kcr_cache_misses.fetch_add(
      k.node_cache_misses - folded_kcr_.node_cache_misses,
      std::memory_order_relaxed);
  folded_setr_ = s;
  folded_kcr_ = k;
}

uint32_t FrozenSegment::ShadowedAt(uint64_t seq) const {
  uint32_t count = 0;
  const size_t n = objects_.size();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t del = shadow_[i].load(std::memory_order_relaxed);
    if (del != 0 && del <= seq) ++count;
  }
  return count;
}

}  // namespace wsk
