// SetR-tree: the disk-resident hybrid index of Section IV-B.
//
// A variant of the IR-tree. Leaf entries are (object, point, pks) where
// pks points at the object's keyword set; non-leaf entries are
// (child, mbr, pku, pki) where pku/pki point at the union / intersection of
// all keyword sets in the child's subtree. Theorem 1 turns those two sets
// into an upper bound on the ranking score of any object below a node,
// which drives best-first top-k search (TopKSource).
//
// Everything but the pku/pki summary is the packed R-tree core
// (index/packed_rtree.h), shared with the KcR-tree.
#ifndef WSK_INDEX_SETR_TREE_H_
#define WSK_INDEX_SETR_TREE_H_

#include <memory>
#include <vector>

#include "index/packed_rtree.h"

namespace wsk {

// The SetR inner-entry summary: the union (pku) and intersection (pki) of
// the subtree's keyword sets, stored inline after the child's MBR.
struct SetRKind {
  static constexpr uint32_t kMagic = 0x53524b57;  // "WKRS"
  static constexpr uint32_t kMetaVersion = kNodeFormatV2;
  static constexpr const char* kName = "SetR-tree";
  static constexpr const char* kClassName = "SetRTree";

  struct InnerEntry {
    PageId child = kInvalidPageId;
    Rect mbr;
  };
  struct Summary {
    KeywordSet uni;
    KeywordSet inter;
  };
  struct Payload {
    std::vector<KeywordSet> child_union;  // inner: per-entry pku
    std::vector<KeywordSet> child_inter;  // inner: per-entry pki
  };
  struct MetaTail {
    void Put(ByteWriter*) const {}
    void Get(ByteReader*) {}
  };

  static void AddDoc(Summary* s, const KeywordSet& doc, bool first);
  static void AddChild(Summary* s, const Summary& child, bool first);
  static void PutSummary(std::vector<uint8_t>* body, const Summary& s);
  static const char* GetSummary(CheckedReader* reader, InnerEntry* entry,
                                Payload* payload, size_t* bytes);
  static void Reserve(Payload* payload, size_t count);
  static void FinishInner(const std::vector<InnerEntry>&, Payload*,
                          size_t*) {}
  static void MixInner(FingerprintHasher* hasher, const InnerEntry& entry,
                       const Payload& payload, size_t i);
  static Status FinishRoot(BufferPool*, const Rect&, const Summary&,
                           MetaTail*) {
    return Status::Ok();
  }
  // Theorem 1: ST(o, q) <= alpha (1 - MinDist(q, N.mbr)) +
  //            (1 - alpha) |N_u ∩ q| / |N_i ∪ q| for every o under N.
  static void AppendInnerEntries(const std::vector<InnerEntry>& entries,
                                 const Payload& payload, double diagonal,
                                 const SpatialKeywordQuery& query,
                                 std::vector<SearchEntry>* out);
};

extern template class PackedRTree<SetRKind>;

class SetRTree final : public PackedRTree<SetRKind> {
 public:
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

 private:
  friend class PackedRTree<SetRKind>;
  SetRTree(BufferPool* pool, const Options& options, double diagonal)
      : PackedRTree(pool, options, diagonal) {}
};

}  // namespace wsk

#endif  // WSK_INDEX_SETR_TREE_H_
