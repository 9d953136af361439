// The packed R-tree core both indexes of the paper are built on.
//
// The SetR-tree (Section IV-B) and the KcR-tree (Section V-A) are the same
// STR-packed, bulk-built R-tree: the same leaf level (object id, point and
// keyword set per entry), the same grouping, the same node records and the
// same meta-page prefix. Only the inner-entry summary differs — pku/pki for
// the SetR-tree, cnt/pcm for the KcR-tree. PackedRTree<Kind> owns
// everything the two share; a Kind supplies the summary:
//
//   kMagic, kMetaVersion   the meta page's first two words
//   kName, kClassName      "SetR-tree"/"SetRTree", used in error messages
//   InnerEntry             {PageId child; Rect mbr; ...} structural entry
//   Summary                a subtree summary carried up the STR build
//   Payload                decoded per-child summaries (DecodedNode base)
//   MetaTail               fields written after the shared meta prefix
//   AddDoc / AddChild      fold one object / child summary into a summary
//   PutSummary/GetSummary  the inner-entry body after the child ref + MBR;
//                          GetSummary returns nullptr or a Corruption text
//   Reserve / FinishInner  decode bookkeeping before / after the entries
//   MixInner               the inner half of the cache fingerprint
//   FinishRoot             after the last level (KcR: the root-kcm record)
//   AppendInnerEntries     one SearchEntry per inner entry for a query
//
// Kind functions are static and resolved at compile time: per node there is
// at most one call into the Kind, and the per-object leaf loops are plain
// loops in the core.
//
// Storage layout: the tree is bulk-built once and never updated. Each node
// is one compact, checksummed record (storage/node_codec_v2.h) that holds
// its keyword payloads inline, so a node's sets are "stored sequentially on
// disk" (Section IV-B) by construction. Records are read through the
// buffer pool, or through a read-only mapping once the pager maps the
// file. A metadata page (page 0) persists the tree header so an index file
// can be reopened.
#ifndef WSK_INDEX_PACKED_RTREE_H_
#define WSK_INDEX_PACKED_RTREE_H_

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

struct PackedTreeOptions {
  uint32_t capacity = 100;  // max entries per node (Section VII-A1)
  SimilarityModel model = SimilarityModel::kJaccard;
};

// The structural part of a leaf entry; its keyword set (pks) sits beside it
// in DecodedNode::leaf_docs.
struct PackedLeafEntry {
  ObjectId object = kInvalidObjectId;
  Point loc;
};

template <typename Kind>
class PackedRTree : public TopKSource {
 public:
  using Options = PackedTreeOptions;
  using LeafEntry = PackedLeafEntry;
  using InnerEntry = typename Kind::InnerEntry;

  struct Node {
    bool is_leaf = true;
    std::vector<LeafEntry> leaf_entries;
    std::vector<InnerEntry> inner_entries;

    size_t size() const {
      return is_leaf ? leaf_entries.size() : inner_entries.size();
    }
  };

  // A node decoded all the way down: structural entries plus every inline
  // payload (object docs for leaves, the Kind's per-child summaries for
  // inner nodes). Immutable once built — the unit the NodeCache shares
  // across queries.
  struct DecodedNode : Kind::Payload {
    Node node;
    std::vector<KeywordSet> leaf_docs;  // leaves: per-entry doc
    size_t memory_bytes = 0;            // cache charge estimate
  };

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

  // Attaches a shared decoded-node cache (not owned). Call after bulk load;
  // the tree registers itself under a fresh cache tree-id. Pass nullptr to
  // detach.
  void AttachNodeCache(NodeCache* cache);

  // This tree's key namespace in the attached cache (0 = never attached).
  // Segment retirement uses it to drop the tree's entries (EraseTree).
  uint32_t cache_tree_id() const { return cache_tree_id_; }

  // Reads a fully materialized node, through the cache when one is attached
  // and `use_cache` is true. With `use_cache` false the read behaves
  // exactly like the uncached path (no lookup, no insert, no counters), so
  // differential runs can replay both paths.
  StatusOr<std::shared_ptr<const DecodedNode>> ReadDecodedNode(
      PageId page, bool use_cache = true) const;

  double diagonal() const { return diagonal_; }
  uint32_t height() const { return height_; }  // 0 = empty, 1 = leaf root
  uint64_t num_objects() const { return num_objects_; }
  const Options& options() const { return options_; }

  // Introspection: the structural entries of one node, uncached. Use
  // ReadDecodedNode for the payloads.
  StatusOr<Node> ReadNode(PageId page) const;

  // Layout facts of one node from its record header alone (no payload
  // decode), so structural checks can run before any entry is parsed.
  StatusOr<NodeStat> StatNode(PageId page) const;

 protected:
  PackedRTree(BufferPool* pool, const Options& options, double diagonal)
      : pool_(pool), options_(options), diagonal_(diagonal) {}

  // The bulk-load and reopen paths of a concrete tree (whose constructor
  // forwards to the one above and befriends this class).
  template <typename Tree>
  static StatusOr<std::unique_ptr<Tree>> Load(
      const std::vector<SpatialObject>& objects, double diagonal,
      BufferPool* pool, const Options& options) {
    WSK_RETURN_IF_ERROR(CheckBulkLoad(pool, options, diagonal));
    std::unique_ptr<Tree> tree(new Tree(pool, options, diagonal));
    WSK_RETURN_IF_ERROR(tree->Pack(objects));
    WSK_RETURN_IF_ERROR(tree->Finalize());
    return tree;
  }
  template <typename Tree>
  static StatusOr<std::unique_ptr<Tree>> Reopen(BufferPool* pool) {
    std::unique_ptr<Tree> tree(new Tree(pool, Options{}, 1.0));
    WSK_RETURN_IF_ERROR(tree->ReadMeta());
    return tree;
  }

  BufferPool* const pool_;
  // First-touch body-checksum ledger (the tree is immutable, so one clean
  // verification per record is enough).
  mutable ChecksumLedger checksum_ledger_;
  typename Kind::MetaTail meta_tail_;

 private:
  using Summary = typename Kind::Summary;

  static Status CheckBulkLoad(BufferPool* pool, const Options& options,
                              double diagonal);
  // STR-packs `objects` level by level, appending every node record after
  // the meta page; an empty list writes no node.
  Status Pack(const std::vector<SpatialObject>& objects);
  StatusOr<std::shared_ptr<const DecodedNode>> DecodeNode(PageId page) const;
  static uint64_t Fingerprint(const void* value);
  Status WriteMeta();
  Status ReadMeta();

  NodeCache* cache_ = nullptr;  // not owned; see AttachNodeCache
  uint32_t cache_tree_id_ = 0;
  Options options_;
  PageId meta_page_ = 0;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;
  uint64_t num_objects_ = 0;
  double diagonal_ = 1.0;
};

}  // namespace wsk

#endif  // WSK_INDEX_PACKED_RTREE_H_
