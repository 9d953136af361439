#include "segment/frozen_segment.h"

#include <atomic>
#include <cstdio>

#include <unistd.h>

#include "common/macros.h"

namespace wsk {

namespace {

std::string UniqueSegmentPath(const std::string& work_dir, const char* kind) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = counter.fetch_add(1);
  return work_dir + "/wsk_seg_" + std::to_string(getpid()) + "_" +
         std::to_string(id) + "_" + kind + ".idx";
}

}  // namespace

StatusOr<std::shared_ptr<FrozenSegment>> FrozenSegment::Build(
    std::vector<SpatialObject> objects, double diagonal,
    const Options& options, NodeCache* node_cache,
    RetiredIoAccumulator* retired) {
  std::shared_ptr<FrozenSegment> segment(new FrozenSegment());
  segment->objects_ = std::move(objects);
  segment->node_cache_ = node_cache;
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

  segment->setr_path_ = UniqueSegmentPath(options.work_dir, "setr");
  segment->kcr_path_ = UniqueSegmentPath(options.work_dir, "kcr");

  StatusOr<std::unique_ptr<Pager>> setr_pager =
      Pager::Create(segment->setr_path_, options.page_size);
  if (!setr_pager.ok()) return setr_pager.status();
  segment->setr_pager_ = std::move(setr_pager).value();
  segment->setr_pool_ = std::make_unique<BufferPool>(
      segment->setr_pager_.get(), options.buffer_bytes);

  StatusOr<std::unique_ptr<Pager>> kcr_pager =
      Pager::Create(segment->kcr_path_, options.page_size);
  if (!kcr_pager.ok()) return kcr_pager.status();
  segment->kcr_pager_ = std::move(kcr_pager).value();
  segment->kcr_pool_ = std::make_unique<BufferPool>(segment->kcr_pager_.get(),
                                                    options.buffer_bytes);

  SetRTree::Options setr_options;
  setr_options.capacity = options.node_capacity;
  setr_options.model = options.model;
  StatusOr<std::unique_ptr<SetRTree>> setr = SetRTree::BulkLoadObjects(
      segment->objects_, diagonal, segment->setr_pool_.get(), setr_options);
  if (!setr.ok()) return setr.status();
  segment->setr_tree_ = std::move(setr).value();

  KcrTree::Options kcr_options;
  kcr_options.capacity = options.node_capacity;
  kcr_options.model = options.model;
  StatusOr<std::unique_ptr<KcrTree>> kcr = KcrTree::BulkLoadObjects(
      segment->objects_, diagonal, segment->kcr_pool_.get(), kcr_options);
  if (!kcr.ok()) return kcr.status();
  segment->kcr_tree_ = std::move(kcr).value();

  if (options.mmap_reads) {
    // The segment is sealed from here on; map both files read-only. A
    // non-OK result (platform without mmap, empty file) just leaves the
    // buffered pread path in place — correctness is identical.
    (void)segment->setr_pager_->EnableMappedReads();
    (void)segment->kcr_pager_->EnableMappedReads();
  }

  if (node_cache != nullptr) {
    segment->setr_tree_->AttachNodeCache(node_cache);
    segment->kcr_tree_->AttachNodeCache(node_cache);
  }
  return segment;
}

FrozenSegment::~FrozenSegment() {
  if (node_cache_ != nullptr) {
    if (setr_tree_ != nullptr) node_cache_->EraseTree(setr_tree_->cache_tree_id());
    if (kcr_tree_ != nullptr) node_cache_->EraseTree(kcr_tree_->cache_tree_id());
  }
  FoldIntoRetired();
  if (retired_ != nullptr) {
    retired_->segments_retired.fetch_add(1, std::memory_order_relaxed);
  }
  // Trees and pools must close before the backing files are removed.
  setr_tree_.reset();
  kcr_tree_.reset();
  setr_pool_.reset();
  kcr_pool_.reset();
  setr_pager_.reset();
  kcr_pager_.reset();
  if (!setr_path_.empty()) std::remove(setr_path_.c_str());
  if (!kcr_path_.empty()) std::remove(kcr_path_.c_str());
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
  if (retired_ == nullptr || setr_pager_ == nullptr || kcr_pager_ == nullptr) {
    return;
  }
  const IoStats::Snapshot s = setr_pager_->io_stats().TakeSnapshot();
  const IoStats::Snapshot k = kcr_pager_->io_stats().TakeSnapshot();
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
