// IndexPair: the SetR-tree and the KcR-tree of one object set, each in its
// own paged file with its own buffer pool (the paper's setup).
//
// Owns the files end to end: the unique paths, pager and pool creation,
// both bulk loads, the optional read-only mappings, the node-cache
// attachment, and the teardown — the trees' cache entries are erased, then
// trees, pools and pagers close before the files are removed. WhyNotEngine
// and FrozenSegment each hold one.
#ifndef WSK_INDEX_INDEX_PAIR_H_
#define WSK_INDEX_INDEX_PAIR_H_

#include <memory>
#include <string>
#include <vector>

#include "index/kcr_tree.h"
#include "index/setr_tree.h"
#include "storage/buffer_pool.h"
#include "storage/node_cache.h"
#include "storage/pager.h"

namespace wsk {

class IndexPair {
 public:
  // Where and how the two files are built; every field mirrors a field of
  // WhyNotEngine::Config and FrozenSegment::Options.
  struct Params {
    std::string work_dir;
    const char* file_prefix = "wsk";  // files are <prefix>_<pid>_<n>_<kind>.idx
    uint32_t page_size = kDefaultPageSize;
    size_t buffer_bytes = 4u << 20;  // per file
    PackedTreeOptions tree;
    // Map both files read-only once built. A platform (or empty file) that
    // cannot map keeps the buffered pread path — same bytes, more copies.
    bool mmap_reads = false;
  };

  // Bulk-loads both trees over `objects` with the pinned `diagonal`.
  // `node_cache` (optional, borrowed) is attached to both trees and must
  // outlive the pair.
  static StatusOr<std::unique_ptr<IndexPair>> Build(
      const std::vector<SpatialObject>& objects, double diagonal,
      const Params& params, NodeCache* node_cache);

  ~IndexPair();
  IndexPair(const IndexPair&) = delete;
  IndexPair& operator=(const IndexPair&) = delete;

  const SetRTree& setr() const { return *setr_tree_; }
  const KcrTree& kcr() const { return *kcr_tree_; }
  Pager& setr_pager() const { return *setr_pager_; }
  Pager& kcr_pager() const { return *kcr_pager_; }

  // Drops both buffer pools' cached pages.
  Status InvalidatePools() const;

 private:
  IndexPair() = default;

  std::string setr_path_;
  std::string kcr_path_;
  std::unique_ptr<Pager> setr_pager_;
  std::unique_ptr<Pager> kcr_pager_;
  std::unique_ptr<BufferPool> setr_pool_;
  std::unique_ptr<BufferPool> kcr_pool_;
  std::unique_ptr<SetRTree> setr_tree_;
  std::unique_ptr<KcrTree> kcr_tree_;
  NodeCache* node_cache_ = nullptr;
};

}  // namespace wsk

#endif  // WSK_INDEX_INDEX_PAIR_H_
