// SetR-tree: the disk-resident hybrid index of Section IV-B.
//
// A variant of the IR-tree. Leaf entries are (object, point, pks) where
// pks points at the object's keyword set; non-leaf entries are
// (child, mbr, pku, pki) where pku/pki point at the union / intersection of
// all keyword sets in the child's subtree. Theorem 1 turns those two sets
// into an upper bound on the ranking score of any object below a node,
// which drives best-first top-k search (TopKSource).
//
// Storage layout: the tree is bulk-built once and never updated. Each node
// is one compact, checksummed record (storage/node_codec_v2.h) that holds
// its keyword payloads inline, so a node's sets are "stored sequentially on
// disk" (Section IV-B) by construction. Records are read through the
// buffer pool, or through a read-only mapping once the pager maps the
// file. A metadata page (page 0) persists the tree header so an index file
// can be reopened.
#ifndef WSK_INDEX_SETR_TREE_H_
#define WSK_INDEX_SETR_TREE_H_

#include <memory>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/query.h"
#include "index/node_codec.h"
#include "index/topk.h"
#include "storage/buffer_pool.h"
#include "storage/node_cache.h"
#include "text/keyword_set.h"
#include "text/similarity.h"

namespace wsk {

class SetRTree : public TopKSource {
 public:
  struct Options {
    uint32_t capacity = 100;  // max entries per node (Section VII-A1)
    SimilarityModel model = SimilarityModel::kJaccard;
  };

  // The structural part of an entry; its keyword payloads (pks, or
  // pku/pki) sit beside it in DecodedNode.
  struct LeafEntry {
    ObjectId object = kInvalidObjectId;
    Point loc;
  };

  struct InnerEntry {
    PageId child = kInvalidPageId;
    Rect mbr;
  };

  struct Node {
    bool is_leaf = true;
    std::vector<LeafEntry> leaf_entries;
    std::vector<InnerEntry> inner_entries;

    size_t size() const {
      return is_leaf ? leaf_entries.size() : inner_entries.size();
    }
  };

  // Builds the tree bottom-up with Sort-Tile-Recursive packing; the normal
  // path for the (static) experiment datasets. The buffer pool's pager must
  // be fresh (no pages allocated yet).
  static StatusOr<std::unique_ptr<SetRTree>> BulkLoad(
      const Dataset& dataset, BufferPool* pool, const Options& options);

  // STR-packs an explicit object list (ids are preserved as given, need not
  // be dense) with a pinned SDist normalizer — the segment build path,
  // where every tree of a live dataset must share one diagonal.
  static StatusOr<std::unique_ptr<SetRTree>> BulkLoadObjects(
      const std::vector<SpatialObject>& objects, double diagonal,
      BufferPool* pool, const Options& options);

  // Reopens a finalized index file. A meta page of any other format
  // version is Corruption naming that version.
  static StatusOr<std::unique_ptr<SetRTree>> Open(BufferPool* pool);

  // Writes the metadata page and flushes all dirty buffers. Bulk load
  // already calls it; calling it again is harmless.
  Status Finalize();

  // TopKSource:
  PageId SearchRoot() const override;
  Status ExpandNode(PageId node, const SpatialKeywordQuery& query,
                    bool use_cache, std::vector<SearchEntry>* out)
      const override;
  // One decode + one footprint per object for the whole batch; bit-exact
  // per-query entries (docs/BATCHING.md).
  Status ExpandNodeBatch(PageId node,
                         const SpatialKeywordQuery* const* queries,
                         std::vector<SearchEntry>* const* outs, size_t count,
                         bool use_cache) const override;

  // A node decoded all the way down: structural entries plus every inline
  // keyword payload (object docs for leaves, union/intersection summaries
  // for inner nodes). Immutable once built — the unit the NodeCache shares
  // across queries.
  struct DecodedNode {
    Node node;
    std::vector<KeywordSet> leaf_docs;     // leaves: per-entry doc
    std::vector<KeywordSet> child_union;   // inner: per-entry pku
    std::vector<KeywordSet> child_inter;   // inner: per-entry pki
    size_t memory_bytes = 0;               // cache charge estimate
  };

  // Attaches a shared decoded-node cache (not owned). Call after bulk load;
  // pass nullptr to detach.
  void AttachNodeCache(NodeCache* cache);

  // This tree's key namespace in the attached cache (0 = never attached).
  // Segment retirement uses it to drop the tree's entries (EraseTree).
  uint32_t cache_tree_id() const { return cache_tree_id_; }

  // Reads a fully materialized node, through the cache when attached and
  // `use_cache` is true; with `use_cache` false the read is byte-identical
  // to the uncached path (no lookup/insert/counters).
  StatusOr<std::shared_ptr<const DecodedNode>> ReadDecodedNode(
      PageId page, bool use_cache = true) const;

  double diagonal() const { return diagonal_; }
  uint32_t height() const { return height_; }  // 0 = empty, 1 = leaf root
  uint64_t num_objects() const { return num_objects_; }
  const Options& options() const { return options_; }

  // Introspection: the structural entries of one node, uncached. Use
  // ReadDecodedNode for the keyword payloads.
  StatusOr<Node> ReadNode(PageId page) const;

  // Layout facts of one node from its record header alone (no payload
  // decode), so structural checks can run before any entry is parsed.
  StatusOr<NodeStat> StatNode(PageId page) const;

 private:
  SetRTree(BufferPool* pool, const Options& options, double diagonal);

  // Summary of a subtree as seen from its parent entry.
  struct Summary {
    Rect mbr;
    KeywordSet uni;
    KeywordSet inter;
  };

  StatusOr<std::shared_ptr<const DecodedNode>> DecodeNode(PageId page) const;
  // Encodes the node with its keyword payloads inline (leaves: `primary` =
  // per-entry docs; inner: `primary` = unions, `secondary` =
  // intersections) and appends it to fresh pages.
  StatusOr<PageId> AppendNode(const Node& node,
                              const std::vector<const KeywordSet*>& primary,
                              const std::vector<const KeywordSet*>& secondary,
                              bool children_are_leaves);
  Status WriteMeta();
  Status ReadMeta();

  BufferPool* const pool_;
  NodeCache* cache_ = nullptr;  // not owned; see AttachNodeCache
  uint32_t cache_tree_id_ = 0;
  // First-touch body-checksum ledger (the tree is immutable, so one clean
  // verification per record is enough).
  mutable ChecksumLedger checksum_ledger_;
  Options options_;
  PageId meta_page_ = kInvalidPageId;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;
  uint64_t num_objects_ = 0;
  double diagonal_ = 1.0;
};

}  // namespace wsk

#endif  // WSK_INDEX_SETR_TREE_H_
