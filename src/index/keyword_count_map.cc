#include "index/keyword_count_map.h"

#include <algorithm>

#include "common/macros.h"

namespace wsk {

KeywordCountMap KeywordCountMap::FromDoc(const KeywordSet& doc) {
  KeywordCountMap map;
  map.pairs_.reserve(doc.size());
  for (TermId t : doc) map.pairs_.emplace_back(t, 1);
  return map;
}

void KeywordCountMap::AddDoc(const KeywordSet& doc) {
  Merge(FromDoc(doc));
}

void KeywordCountMap::Merge(const KeywordCountMap& other) {
  std::vector<std::pair<TermId, uint32_t>> merged;
  merged.reserve(pairs_.size() + other.pairs_.size());
  auto a = pairs_.begin();
  auto b = other.pairs_.begin();
  while (a != pairs_.end() && b != other.pairs_.end()) {
    if (a->first < b->first) {
      merged.push_back(*a++);
    } else if (b->first < a->first) {
      merged.push_back(*b++);
    } else {
      merged.emplace_back(a->first, a->second + b->second);
      ++a;
      ++b;
    }
  }
  merged.insert(merged.end(), a, pairs_.end());
  merged.insert(merged.end(), b, other.pairs_.end());
  pairs_ = std::move(merged);
}

uint32_t KeywordCountMap::CountOf(TermId t) const {
  const auto it = std::lower_bound(
      pairs_.begin(), pairs_.end(), t,
      [](const std::pair<TermId, uint32_t>& p, TermId v) {
        return p.first < v;
      });
  if (it == pairs_.end() || it->first != t) return 0;
  return it->second;
}

uint64_t KeywordCountMap::TotalCount() const {
  uint64_t total = 0;
  for (const auto& [term, count] : pairs_) total += count;
  return total;
}

}  // namespace wsk
