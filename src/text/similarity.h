// Textual similarity models.
//
// The paper's ranking function uses Jaccard similarity (Eqn 2); footnote 1
// notes that the framework extends to other set-based models, so Dice and
// Overlap are provided behind the same interface. Each model also exposes
// the node-level upper bound needed by Theorem 1: given a tree node N with
// union keyword set N_u and intersection keyword set N_i, the similarity of
// any object under N to a query keyword set q is at most
// NodeUpperBound(|N_u ∩ q|, |N_i|, |q|), because |o ∩ q| <= |N_u ∩ q| and
// |o ∪ q| >= |N_i ∪ q|.
#ifndef WSK_TEXT_SIMILARITY_H_
#define WSK_TEXT_SIMILARITY_H_

#include <string>

#include "text/keyword_set.h"

namespace wsk {

enum class SimilarityModel {
  kJaccard,  // |a ∩ b| / |a ∪ b|
  kDice,     // 2|a ∩ b| / (|a| + |b|)
  kOverlap,  // |a ∩ b| / min(|a|, |b|)
};

const char* SimilarityModelName(SimilarityModel model);

// Similarity of two keyword sets in [0, 1]. Two empty sets score 0 (there
// is no textual evidence of a match).
double TextualSimilarity(const KeywordSet& a, const KeywordSet& b,
                         SimilarityModel model = SimilarityModel::kJaccard);

// Theorem 1 upper bound on TextualSimilarity(o, q) for any object o inside
// a node whose union set intersects q in `union_inter_query` terms and
// whose intersection set unions with q to `inter_union_query` terms.
//   Jaccard: |N_u ∩ q| / |N_i ∪ q|
//   Dice:    2 |N_u ∩ q| / (max(1, |N_i|) + |q|)
//   Overlap: |N_u ∩ q| / max(1, min(|N_i|, |q|))
double NodeSimilarityUpperBound(size_t union_inter_query,
                                size_t inter_union_query, size_t inter_size,
                                size_t query_size,
                                SimilarityModel model =
                                    SimilarityModel::kJaccard);

}  // namespace wsk

#endif  // WSK_TEXT_SIMILARITY_H_
