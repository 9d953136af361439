// Keyword-count map (kcm): the textual summary attached to every KcR-tree
// child entry (Section V-A). Maps each term occurring in a subtree to the
// number of objects in that subtree containing it.
#ifndef WSK_INDEX_KEYWORD_COUNT_MAP_H_
#define WSK_INDEX_KEYWORD_COUNT_MAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "text/keyword_set.h"

namespace wsk {

class KeywordCountMap {
 public:
  KeywordCountMap() = default;

  // A single document: every term has count 1.
  static KeywordCountMap FromDoc(const KeywordSet& doc);

  // Adopts pre-sorted (term, count) pairs without re-sorting; the caller
  // guarantees strictly ascending terms and positive counts (the v2 node
  // decoder enforces both while reading).
  static KeywordCountMap FromSortedPairs(
      std::vector<std::pair<TermId, uint32_t>> pairs) {
    KeywordCountMap kcm;
    kcm.pairs_ = std::move(pairs);
    return kcm;
  }

  // Adds a document's terms (each +1).
  void AddDoc(const KeywordSet& doc);

  // Adds another map's counts (merging a child subtree's summary).
  void Merge(const KeywordCountMap& other);

  // N.count(t); 0 when absent.
  uint32_t CountOf(TermId t) const;

  // Sum of all counts = Σ_o |o.doc| over the subtree.
  uint64_t TotalCount() const;

  size_t num_terms() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }

  // (term, count) pairs sorted by term.
  const std::vector<std::pair<TermId, uint32_t>>& pairs() const {
    return pairs_;
  }

  // Bytes of a u32 pair count plus the (term, count) pairs; the
  // decoded-node cache charges each decoded map at this size.
  size_t SerializedSize() const { return 4 + 8 * pairs_.size(); }

  friend bool operator==(const KeywordCountMap& a, const KeywordCountMap& b) {
    return a.pairs_ == b.pairs_;
  }

 private:
  std::vector<std::pair<TermId, uint32_t>> pairs_;
};

}  // namespace wsk

#endif  // WSK_INDEX_KEYWORD_COUNT_MAP_H_
