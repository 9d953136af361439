#include "index/index_pair.h"

#include <atomic>
#include <cstdio>

#include <unistd.h>

namespace wsk {

namespace {

std::string UniqueIndexPath(const IndexPair::Params& params,
                            const char* kind) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = counter.fetch_add(1);
  return params.work_dir + "/" + params.file_prefix + "_" +
         std::to_string(getpid()) + "_" + std::to_string(id) + "_" + kind +
         ".idx";
}

// Creates the file at `path` and a buffer pool over it.
Status CreateFile(const std::string& path, const IndexPair::Params& params,
                  std::unique_ptr<Pager>* pager,
                  std::unique_ptr<BufferPool>* pool) {
  StatusOr<std::unique_ptr<Pager>> created =
      Pager::Create(path, params.page_size);
  if (!created.ok()) return created.status();
  *pager = std::move(created).value();
  *pool = std::make_unique<BufferPool>(pager->get(), params.buffer_bytes);
  return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<IndexPair>> IndexPair::Build(
    const std::vector<SpatialObject>& objects, double diagonal,
    const Params& params, NodeCache* node_cache) {
  std::unique_ptr<IndexPair> pair(new IndexPair());
  pair->setr_path_ = UniqueIndexPath(params, "setr");
  pair->kcr_path_ = UniqueIndexPath(params, "kcr");
  WSK_RETURN_IF_ERROR(CreateFile(pair->setr_path_, params, &pair->setr_pager_,
                                 &pair->setr_pool_));
  WSK_RETURN_IF_ERROR(CreateFile(pair->kcr_path_, params, &pair->kcr_pager_,
                                 &pair->kcr_pool_));

  StatusOr<std::unique_ptr<SetRTree>> setr = SetRTree::BulkLoadObjects(
      objects, diagonal, pair->setr_pool_.get(), params.tree);
  if (!setr.ok()) return setr.status();
  pair->setr_tree_ = std::move(setr).value();
  StatusOr<std::unique_ptr<KcrTree>> kcr = KcrTree::BulkLoadObjects(
      objects, diagonal, pair->kcr_pool_.get(), params.tree);
  if (!kcr.ok()) return kcr.status();
  pair->kcr_tree_ = std::move(kcr).value();

  if (params.mmap_reads) {
    // Both files are finalized by bulk load; a non-OK result keeps the
    // buffered path.
    (void)pair->setr_pager_->EnableMappedReads();
    (void)pair->kcr_pager_->EnableMappedReads();
  }
  if (node_cache != nullptr) {
    pair->node_cache_ = node_cache;
    pair->setr_tree_->AttachNodeCache(node_cache);
    pair->kcr_tree_->AttachNodeCache(node_cache);
  }
  return pair;
}

IndexPair::~IndexPair() {
  if (node_cache_ != nullptr) {
    node_cache_->EraseTree(setr_tree_->cache_tree_id());
    node_cache_->EraseTree(kcr_tree_->cache_tree_id());
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

Status IndexPair::InvalidatePools() const {
  WSK_RETURN_IF_ERROR(setr_pool_->InvalidateAll());
  return kcr_pool_->InvalidateAll();
}

}  // namespace wsk
