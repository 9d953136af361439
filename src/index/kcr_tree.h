// KcR-tree: the Keyword-count R-tree of Section V-A.
//
// An R-tree whose non-leaf entries carry, besides the child MBR, the number
// of objects in the child's subtree (cnt) and a pointer to its keyword-count
// map (pcm). Those summaries let the bound-and-prune algorithm estimate,
// for a candidate keyword set, how many objects under a node dominate the
// missing object (MaxDom / MinDom, see dom_bounds.h) without unfolding it.
//
// Everything but the cnt/kcm summary is the packed R-tree core
// (index/packed_rtree.h), shared with the SetR-tree. The metadata page
// additionally records the root's own cnt / MBR and the page of a record
// holding the root kcm, so a traversal can bound the whole tree before the
// first node access (Algorithm 3, lines 2-6).
#ifndef WSK_INDEX_KCR_TREE_H_
#define WSK_INDEX_KCR_TREE_H_

#include <memory>
#include <vector>

#include "index/dom_bounds.h"
#include "index/keyword_count_map.h"
#include "index/packed_rtree.h"

namespace wsk {

// The KcR inner-entry summary: the subtree's object count (cnt) and
// keyword-count map (kcm), stored inline after the child's MBR.
struct KcrKind {
  static constexpr uint32_t kMagic = 0x43524b57;  // "WKRC"
  // The KcR meta page has its own version: version 2 pages held the root
  // keyword-count map out of line, version 3 holds the page id of its
  // record.
  static constexpr uint32_t kMetaVersion = 3;
  static constexpr const char* kName = "KcR-tree";
  static constexpr const char* kClassName = "KcrTree";

  struct InnerEntry {
    PageId child = kInvalidPageId;
    Rect mbr;
    uint32_t cnt = 0;  // objects in the child's subtree
  };
  struct Summary {
    KeywordCountMap kcm;
    uint32_t cnt = 0;
  };
  // Decoded count map + suffix-histogram stats per child (same index).
  // child_stats[i] points into child_kcms[i], which is why both live
  // together inside one shared, immutable allocation.
  struct Payload {
    std::vector<KeywordCountMap> child_kcms;
    std::vector<NodeDomStats> child_stats;
  };
  // The root summary, written after the shared meta prefix.
  struct MetaTail {
    uint32_t root_cnt = 0;
    Rect root_mbr;
    // First page of the single-entry record holding the root kcm.
    PageId root_kcm_page = kInvalidPageId;

    void Put(ByteWriter* writer) const {
      writer->PutU32(root_cnt);
      writer->PutRect(root_mbr);
      writer->PutU32(root_kcm_page);
    }
    void Get(ByteReader* reader) {
      root_cnt = reader->GetU32();
      root_mbr = reader->GetRect();
      root_kcm_page = reader->GetU32();
    }
  };

  static void AddDoc(Summary* s, const KeywordSet& doc, bool first);
  static void AddChild(Summary* s, const Summary& child, bool first);
  static void PutSummary(std::vector<uint8_t>* body, const Summary& s);
  static const char* GetSummary(CheckedReader* reader, InnerEntry* entry,
                                Payload* payload, size_t* bytes);
  static void Reserve(Payload* payload, size_t count);
  static void FinishInner(const std::vector<InnerEntry>& entries,
                          Payload* payload, size_t* bytes);
  static void MixInner(FingerprintHasher* hasher, const InnerEntry& entry,
                       const Payload& payload, size_t i);
  static Status FinishRoot(BufferPool* pool, const Rect& mbr,
                           const Summary& root, MetaTail* tail);
  // Theorem 1 with an empty intersection set: an object below a child
  // shares at most the query terms present in the child's count map.
  static void AppendInnerEntries(const std::vector<InnerEntry>& entries,
                                 const Payload& payload, double diagonal,
                                 const SpatialKeywordQuery& query,
                                 std::vector<SearchEntry>* out);
};

extern template class PackedRTree<KcrKind>;

class KcrTree final : public PackedRTree<KcrKind> {
 public:
  static StatusOr<std::unique_ptr<KcrTree>> BulkLoad(
      const Dataset& dataset, BufferPool* pool, const Options& options);
  // Explicit object list + pinned diagonal (segment build path); ids are
  // preserved as given and need not be dense.
  static StatusOr<std::unique_ptr<KcrTree>> BulkLoadObjects(
      const std::vector<SpatialObject>& objects, double diagonal,
      BufferPool* pool, const Options& options);
  // Reopens a finalized index file. A meta page of any other format
  // version is Corruption naming that version.
  static StatusOr<std::unique_ptr<KcrTree>> Open(BufferPool* pool);

  // Root summary for Algorithm 3's initial bounds.
  const Rect& root_mbr() const { return meta_tail_.root_mbr; }
  uint32_t root_cnt() const { return meta_tail_.root_cnt; }
  StatusOr<KeywordCountMap> ReadRootKcm() const;

 private:
  friend class PackedRTree<KcrKind>;
  KcrTree(BufferPool* pool, const Options& options, double diagonal)
      : PackedRTree(pool, options, diagonal) {}
};

}  // namespace wsk

#endif  // WSK_INDEX_KCR_TREE_H_
