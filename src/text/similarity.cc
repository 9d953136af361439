#include "text/similarity.h"

#include <algorithm>

namespace wsk {

const char* SimilarityModelName(SimilarityModel model) {
  switch (model) {
    case SimilarityModel::kJaccard:
      return "jaccard";
    case SimilarityModel::kDice:
      return "dice";
    case SimilarityModel::kOverlap:
      return "overlap";
  }
  return "unknown";
}

double TextualSimilarity(const KeywordSet& a, const KeywordSet& b,
                         SimilarityModel model) {
  const size_t inter = a.IntersectionSize(b);
  switch (model) {
    case SimilarityModel::kJaccard: {
      const size_t uni = a.size() + b.size() - inter;
      return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
    }
    case SimilarityModel::kDice: {
      const size_t denom = a.size() + b.size();
      return denom == 0 ? 0.0 : 2.0 * inter / denom;
    }
    case SimilarityModel::kOverlap: {
      const size_t denom = std::min(a.size(), b.size());
      return denom == 0 ? 0.0 : static_cast<double>(inter) / denom;
    }
  }
  return 0.0;
}

double NodeSimilarityUpperBound(size_t union_inter_query,
                                size_t inter_union_query, size_t inter_size,
                                size_t query_size, SimilarityModel model) {
  // TextualSimilarity never exceeds 1, so any bound above 1 is slack: clamp
  // it. Without the clamp the kOverlap branch (and kDice when |N_i| < |q|)
  // returns > 1 whenever union_inter_query exceeds the denominator, which
  // inflates node priorities and deepens best-first search for nothing.
  switch (model) {
    case SimilarityModel::kJaccard:
      // With consistent inputs |N_u ∩ q| <= |q| <= |N_i ∪ q| the ratio is
      // already <= 1; the clamp makes the [0, 1] contract unconditional.
      return inter_union_query == 0
                 ? 0.0
                 : std::min(1.0, static_cast<double>(union_inter_query) /
                                     inter_union_query);
    case SimilarityModel::kDice: {
      // An object that shares a term has at least max(1, |N_i|) terms.
      const size_t denom = std::max<size_t>(1, inter_size) + query_size;
      return denom == 0
                 ? 0.0
                 : std::min(1.0, 2.0 * union_inter_query / denom);
    }
    case SimilarityModel::kOverlap: {
      // Any object's doc has at least |N_i| terms but could be as small as
      // max(1, |N_i|); the query size is fixed.
      const size_t denom = std::max<size_t>(
          1, std::min(inter_size == 0 ? 1 : inter_size, query_size));
      return std::min(1.0, static_cast<double>(union_inter_query) / denom);
    }
  }
  return 1.0;
}

}  // namespace wsk
