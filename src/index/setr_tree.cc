#include "index/setr_tree.h"

namespace wsk {

void SetRKind::AddDoc(Summary* s, const KeywordSet& doc, bool first) {
  s->uni = s->uni.Union(doc);
  s->inter = first ? doc : s->inter.Intersect(doc);
}

void SetRKind::AddChild(Summary* s, const Summary& child, bool first) {
  s->uni = s->uni.Union(child.uni);
  s->inter = first ? child.inter : s->inter.Intersect(child.inter);
}

void SetRKind::PutSummary(std::vector<uint8_t>* body, const Summary& s) {
  PutKeywordSetV2(body, s.uni);
  PutKeywordSetV2(body, s.inter);
}

const char* SetRKind::GetSummary(CheckedReader* reader, InnerEntry*,
                                 Payload* payload, size_t* bytes) {
  KeywordSet uni, inter;
  if (!GetKeywordSetV2(reader, &uni) || !GetKeywordSetV2(reader, &inter)) {
    return "malformed summary keyword set";
  }
  *bytes += 2 * sizeof(KeywordSet) + uni.SerializedSize() +
            inter.SerializedSize();
  payload->child_union.push_back(std::move(uni));
  payload->child_inter.push_back(std::move(inter));
  return nullptr;
}

void SetRKind::Reserve(Payload* payload, size_t count) {
  payload->child_union.reserve(count);
  payload->child_inter.reserve(count);
}

void SetRKind::MixInner(FingerprintHasher* hasher, const InnerEntry&,
                        const Payload& payload, size_t i) {
  for (const KeywordSet* set : {&payload.child_union[i],
                                &payload.child_inter[i]}) {
    hasher->Mix(set->terms().data(), set->terms().size() * sizeof(TermId));
  }
}

void SetRKind::AppendInnerEntries(const std::vector<InnerEntry>& entries,
                                  const Payload& payload, double diagonal,
                                  const SpatialKeywordQuery& query,
                                  std::vector<SearchEntry>* out) {
  const double alpha = query.alpha;
  for (size_t i = 0; i < entries.size(); ++i) {
    const KeywordSet& uni = payload.child_union[i];
    const KeywordSet& inter = payload.child_inter[i];
    const double min_sdist = MinDist(query.loc, entries[i].mbr) / diagonal;
    const double tsim_bound = NodeSimilarityUpperBound(
        uni.IntersectionSize(query.doc), inter.UnionSize(query.doc),
        inter.size(), query.doc.size(), query.model);
    SearchEntry entry;
    entry.bound = alpha * (1.0 - min_sdist) + (1.0 - alpha) * tsim_bound;
    entry.node = entries[i].child;
    out->push_back(entry);
  }
}

StatusOr<std::unique_ptr<SetRTree>> SetRTree::BulkLoad(const Dataset& dataset,
                                                       BufferPool* pool,
                                                       const Options& options) {
  return Load<SetRTree>(dataset.objects(), dataset.diagonal(), pool, options);
}

StatusOr<std::unique_ptr<SetRTree>> SetRTree::BulkLoadObjects(
    const std::vector<SpatialObject>& objects, double diagonal,
    BufferPool* pool, const Options& options) {
  return Load<SetRTree>(objects, diagonal, pool, options);
}

StatusOr<std::unique_ptr<SetRTree>> SetRTree::Open(BufferPool* pool) {
  return Reopen<SetRTree>(pool);
}

}  // namespace wsk
