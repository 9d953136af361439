#include "index/kcr_tree.h"

#include <algorithm>
#include <string>

namespace wsk {

namespace {

// Record body encoding of a keyword-count map: varint pair count, then per
// pair the term delta (strictly ascending, like a keyword set) followed by
// its count as a plain varint.
void PutKcmV2(std::vector<uint8_t>* body, const KeywordCountMap& map) {
  const auto& pairs = map.pairs();
  PutVarint(body, pairs.size());
  uint32_t prev = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0) {
      PutVarint(body, pairs[0].first);
    } else {
      WSK_CHECK(pairs[i].first > prev);
      PutVarint(body, pairs[i].first - prev);
    }
    prev = pairs[i].first;
    PutVarint(body, pairs[i].second);
  }
}

bool GetKcmV2(CheckedReader* reader, KeywordCountMap* out) {
  uint32_t n = 0;
  if (!reader->GetVarint32(&n)) return false;
  std::vector<std::pair<TermId, uint32_t>> pairs;
  pairs.reserve(std::min<size_t>(n, reader->remaining()));
  uint64_t term = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t step = 0;
    if (!reader->GetVarint(&step)) return false;
    if (i == 0) {
      term = step;
    } else {
      if (step == 0) return false;  // terms must be strictly ascending
      term += step;
    }
    if (term > 0xffffffffull) return false;
    uint32_t count = 0;
    if (!reader->GetVarint32(&count) || count == 0) return false;
    pairs.emplace_back(static_cast<TermId>(term), count);
  }
  *out = KeywordCountMap::FromSortedPairs(std::move(pairs));
  return true;
}

}  // namespace

void KcrKind::AddDoc(Summary* s, const KeywordSet& doc, bool) {
  s->kcm.AddDoc(doc);
  ++s->cnt;
}

void KcrKind::AddChild(Summary* s, const Summary& child, bool) {
  s->kcm.Merge(child.kcm);
  s->cnt += child.cnt;
}

void KcrKind::PutSummary(std::vector<uint8_t>* body, const Summary& s) {
  PutVarint(body, s.cnt);
  PutKcmV2(body, s.kcm);
}

const char* KcrKind::GetSummary(CheckedReader* reader, InnerEntry* entry,
                                Payload* payload, size_t* bytes) {
  if (!reader->GetVarint32(&entry->cnt)) return "bad subtree count";
  KeywordCountMap kcm;
  if (!GetKcmV2(reader, &kcm)) return "malformed keyword-count map";
  *bytes += sizeof(KeywordCountMap) + kcm.SerializedSize();
  payload->child_kcms.push_back(std::move(kcm));
  return nullptr;
}

void KcrKind::Reserve(Payload* payload, size_t count) {
  // child_kcms is filled completely before child_stats is built:
  // NodeDomStats keeps a pointer to its map, so the vector must never
  // reallocate afterwards.
  payload->child_kcms.reserve(count);
}

void KcrKind::FinishInner(const std::vector<InnerEntry>& entries,
                          Payload* payload, size_t* bytes) {
  payload->child_stats.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    payload->child_stats.emplace_back(&payload->child_kcms[i], entries[i].cnt,
                                      entries[i].mbr);
    *bytes += payload->child_stats.back().MemoryBytes();
  }
}

void KcrKind::MixInner(FingerprintHasher* hasher, const InnerEntry& entry,
                       const Payload& payload, size_t i) {
  hasher->MixU64(entry.cnt);
  const auto& pairs = payload.child_kcms[i].pairs();
  hasher->Mix(pairs.data(), pairs.size() * sizeof(pairs[0]));
}

// The root kcm is one more record: a single entry holding the map. Its
// pair count can exceed a node's u16 entry count, so the map is the entry,
// not the entries.
Status KcrKind::FinishRoot(BufferPool* pool, const Rect& mbr,
                           const Summary& root, MetaTail* tail) {
  tail->root_mbr = mbr;
  tail->root_cnt = root.cnt;
  std::vector<uint8_t> body;
  PutKcmV2(&body, root.kcm);
  StatusOr<PageId> page = AppendNodeRecordV2(pool, /*is_leaf=*/true,
                                             /*count=*/1, body);
  if (!page.ok()) return page.status();
  tail->root_kcm_page = page.value();
  return Status::Ok();
}

void KcrKind::AppendInnerEntries(const std::vector<InnerEntry>& entries,
                                 const Payload& payload, double diagonal,
                                 const SpatialKeywordQuery& query,
                                 std::vector<SearchEntry>* out) {
  const double alpha = query.alpha;
  for (size_t i = 0; i < entries.size(); ++i) {
    const KeywordCountMap& kcm = payload.child_kcms[i];
    size_t present = 0;
    for (TermId t : query.doc) {
      if (kcm.CountOf(t) > 0) ++present;
    }
    // |o ∩ q| <= present, and no intersection set narrows the union.
    const double tsim_bound = NodeSimilarityUpperBound(
        present, query.doc.size(), 0, query.doc.size(), query.model);
    const double min_sdist = MinDist(query.loc, entries[i].mbr) / diagonal;
    SearchEntry entry;
    entry.bound = alpha * (1.0 - min_sdist) + (1.0 - alpha) * tsim_bound;
    entry.node = entries[i].child;
    out->push_back(entry);
  }
}

StatusOr<std::unique_ptr<KcrTree>> KcrTree::BulkLoad(const Dataset& dataset,
                                                     BufferPool* pool,
                                                     const Options& options) {
  return Load<KcrTree>(dataset.objects(), dataset.diagonal(), pool, options);
}

StatusOr<std::unique_ptr<KcrTree>> KcrTree::BulkLoadObjects(
    const std::vector<SpatialObject>& objects, double diagonal,
    BufferPool* pool, const Options& options) {
  return Load<KcrTree>(objects, diagonal, pool, options);
}

StatusOr<std::unique_ptr<KcrTree>> KcrTree::Open(BufferPool* pool) {
  return Reopen<KcrTree>(pool);
}

StatusOr<KeywordCountMap> KcrTree::ReadRootKcm() const {
  if (height() == 0) return KeywordCountMap();
  const PageId page = meta_tail_.root_kcm_page;
  StatusOr<NodeRecordV2> record =
      ReadNodeRecordV2(pool_, page, &checksum_ledger_);
  if (!record.ok()) return record.status();
  const NodeRecordV2& rec = record.value();
  CheckedReader reader(rec.body(), rec.body_bytes());
  KeywordCountMap kcm;
  if (rec.count() != 1 || !GetKcmV2(&reader, &kcm) ||
      reader.remaining() != 0) {
    return Status::Corruption("root keyword-count map at page " +
                              std::to_string(page) + " is malformed");
  }
  return kcm;
}

}  // namespace wsk
