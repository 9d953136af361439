#include "index/kcr_tree.h"

#include <algorithm>
#include <string>

#include "index/node_codec.h"
#include "index/str_pack.h"
#include "text/score_kernel.h"

namespace wsk {

namespace {

constexpr uint32_t kMagic = 0x43524b57;  // "WKRC"

// The KcR meta page has its own version: version 2 pages held the root
// keyword-count map out of line, version 3 holds the page id of its record.
constexpr uint32_t kMetaVersion = 3;

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

// Digest of a decoded node's primary payload, used by the cache's
// no-mutation check (debug builds / sanitizer tests).
uint64_t FingerprintDecodedNode(const void* value) {
  const auto* decoded = static_cast<const KcrTree::DecodedNode*>(value);
  FingerprintHasher hasher;
  hasher.MixU64(decoded->node.is_leaf ? 1 : 0);
  hasher.MixU64(decoded->node.size());
  if (decoded->node.is_leaf) {
    for (size_t i = 0; i < decoded->node.leaf_entries.size(); ++i) {
      const KcrTree::LeafEntry& e = decoded->node.leaf_entries[i];
      hasher.MixU64(e.object);
      hasher.Mix(&e.loc, sizeof(e.loc));
      const std::vector<TermId>& terms = decoded->leaf_docs[i].terms();
      hasher.Mix(terms.data(), terms.size() * sizeof(TermId));
    }
  } else {
    for (size_t i = 0; i < decoded->node.inner_entries.size(); ++i) {
      const KcrTree::InnerEntry& e = decoded->node.inner_entries[i];
      hasher.MixU64(e.child);
      hasher.Mix(&e.mbr, sizeof(e.mbr));
      hasher.MixU64(e.cnt);
      const auto& pairs = decoded->child_kcms[i].pairs();
      hasher.Mix(pairs.data(), pairs.size() * sizeof(pairs[0]));
    }
  }
  return hasher.digest();
}

}  // namespace

KcrTree::KcrTree(BufferPool* pool, const Options& options, double diagonal)
    : pool_(pool), options_(options), diagonal_(diagonal) {}

StatusOr<std::unique_ptr<KcrTree>> KcrTree::BulkLoad(const Dataset& dataset,
                                                     BufferPool* pool,
                                                     const Options& options) {
  return BulkLoadObjects(dataset.objects(), dataset.diagonal(), pool, options);
}

StatusOr<std::unique_ptr<KcrTree>> KcrTree::BulkLoadObjects(
    const std::vector<SpatialObject>& objects, double diagonal,
    BufferPool* pool, const Options& options) {
  if (options.capacity < 2) {
    return Status::InvalidArgument("node capacity must be at least 2");
  }
  if (options.capacity > kMaxNodeCountV2) {
    return Status::InvalidArgument("node capacity exceeds u16");
  }
  if (pool->pager()->num_pages() != 0) {
    return Status::FailedPrecondition(
        "KcrTree bulk load requires a fresh pager file");
  }
  if (diagonal <= 0.0) {
    return Status::InvalidArgument("diagonal must be positive");
  }
  std::unique_ptr<KcrTree> tree(new KcrTree(pool, options, diagonal));
  tree->meta_page_ = pool->pager()->AllocatePages(1);
  if (objects.empty()) {
    WSK_RETURN_IF_ERROR(tree->Finalize());
    return tree;
  }

  struct Pending {
    PageId page;
    Summary summary;
    Point center;
  };

  std::vector<Point> centers;
  centers.reserve(objects.size());
  for (const SpatialObject& o : objects) centers.push_back(o.loc);
  std::vector<std::vector<uint32_t>> groups =
      StrPack(centers, options.capacity);

  std::vector<Pending> level;
  level.reserve(groups.size());
  for (const std::vector<uint32_t>& group : groups) {
    Node node;
    node.is_leaf = true;
    Summary summary;
    std::vector<const KeywordSet*> docs;
    for (uint32_t idx : group) {
      const SpatialObject& o = objects[idx];
      docs.push_back(&o.doc);
      node.leaf_entries.push_back(LeafEntry{o.id, o.loc});
      summary.mbr.Extend(o.loc);
      summary.kcm.AddDoc(o.doc);
      ++summary.cnt;
    }
    StatusOr<PageId> page =
        tree->AppendNode(node, docs, {}, /*children_are_leaves=*/false);
    if (!page.ok()) return page.status();
    const Point center{(summary.mbr.min_x + summary.mbr.max_x) / 2,
                       (summary.mbr.min_y + summary.mbr.max_y) / 2};
    level.push_back(Pending{page.value(), std::move(summary), center});
  }
  tree->height_ = 1;
  tree->num_objects_ = objects.size();

  bool children_are_leaves = true;
  while (level.size() > 1) {
    centers.clear();
    for (const Pending& p : level) centers.push_back(p.center);
    groups = StrPack(centers, options.capacity);
    std::vector<Pending> next;
    next.reserve(groups.size());
    for (const std::vector<uint32_t>& group : groups) {
      Node node;
      node.is_leaf = false;
      Summary summary;
      std::vector<const KeywordCountMap*> kcms;
      for (uint32_t idx : group) {
        const Pending& child = level[idx];
        kcms.push_back(&child.summary.kcm);
        node.inner_entries.push_back(
            InnerEntry{child.page, child.summary.mbr, child.summary.cnt});
        summary.mbr.Extend(child.summary.mbr);
        summary.kcm.Merge(child.summary.kcm);
        summary.cnt += child.summary.cnt;
      }
      StatusOr<PageId> page =
          tree->AppendNode(node, {}, kcms, children_are_leaves);
      if (!page.ok()) return page.status();
      const Point center{(summary.mbr.min_x + summary.mbr.max_x) / 2,
                         (summary.mbr.min_y + summary.mbr.max_y) / 2};
      next.push_back(Pending{page.value(), std::move(summary), center});
    }
    level = std::move(next);
    children_are_leaves = false;
    ++tree->height_;
  }
  tree->root_ = level.front().page;
  tree->root_mbr_ = level.front().summary.mbr;
  tree->root_cnt_ = level.front().summary.cnt;
  // The root kcm is one more record: a single entry holding the map. Its
  // pair count can exceed a node's u16 entry count, so the map is the
  // entry, not the entries.
  std::vector<uint8_t> body;
  PutKcmV2(&body, level.front().summary.kcm);
  StatusOr<PageId> root_kcm = AppendNodeRecordV2(pool, /*is_leaf=*/true,
                                                 /*count=*/1, body);
  if (!root_kcm.ok()) return root_kcm.status();
  tree->root_kcm_page_ = root_kcm.value();
  WSK_RETURN_IF_ERROR(tree->Finalize());
  return tree;
}

StatusOr<std::unique_ptr<KcrTree>> KcrTree::Open(BufferPool* pool) {
  std::unique_ptr<KcrTree> tree(new KcrTree(pool, Options{}, 1.0));
  tree->meta_page_ = 0;
  WSK_RETURN_IF_ERROR(tree->ReadMeta());
  return tree;
}

StatusOr<PageId> KcrTree::AppendNode(
    const Node& node, const std::vector<const KeywordSet*>& docs,
    const std::vector<const KeywordCountMap*>& kcms,
    bool children_are_leaves) {
  std::vector<uint8_t> body;
  if (node.is_leaf) {
    for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
      const LeafEntry& e = node.leaf_entries[i];
      PutVarint(&body, e.object);
      ByteWriter writer(&body);
      writer.PutDouble(e.loc.x);
      writer.PutDouble(e.loc.y);
      PutKeywordSetV2(&body, *docs[i]);
    }
  } else {
    for (size_t i = 0; i < node.inner_entries.size(); ++i) {
      const InnerEntry& e = node.inner_entries[i];
      PutVarint(&body, MakeChildRef(e.child, children_are_leaves));
      ByteWriter writer(&body);
      writer.PutRect(e.mbr);
      PutVarint(&body, e.cnt);
      PutKcmV2(&body, *kcms[i]);
    }
  }
  return AppendNodeRecordV2(pool_, node.is_leaf,
                            static_cast<uint32_t>(node.size()), body);
}

StatusOr<std::shared_ptr<const KcrTree::DecodedNode>>
KcrTree::DecodeNode(PageId page) const {
  StatusOr<NodeRecordV2> record =
      ReadNodeRecordV2(pool_, page, &checksum_ledger_);
  if (!record.ok()) return record.status();
  const NodeRecordV2& rec = record.value();
  auto corrupt = [page](const char* what) {
    return Status::Corruption("v2 node at page " + std::to_string(page) +
                              ": " + what);
  };
  auto decoded = std::make_shared<DecodedNode>();
  decoded->node.is_leaf = rec.is_leaf();
  CheckedReader reader(rec.body(), rec.body_bytes());
  size_t bytes = sizeof(DecodedNode);
  if (rec.is_leaf()) {
    decoded->node.leaf_entries.reserve(rec.count());
    decoded->leaf_docs.reserve(rec.count());
    for (uint32_t i = 0; i < rec.count(); ++i) {
      LeafEntry e;
      uint64_t object = 0;
      if (!reader.GetVarint(&object) || object > 0xffffffffull) {
        return corrupt("bad object id");
      }
      e.object = static_cast<ObjectId>(object);
      if (!reader.GetDouble(&e.loc.x) || !reader.GetDouble(&e.loc.y)) {
        return corrupt("truncated leaf entry");
      }
      KeywordSet doc;
      if (!GetKeywordSetV2(&reader, &doc)) {
        return corrupt("malformed leaf keyword set");
      }
      bytes += sizeof(LeafEntry) + sizeof(KeywordSet) + doc.SerializedSize();
      decoded->node.leaf_entries.push_back(e);
      decoded->leaf_docs.push_back(std::move(doc));
    }
  } else {
    const PageId num_pages = pool_->pager()->num_pages();
    decoded->node.inner_entries.reserve(rec.count());
    // Fill child_kcms completely before building child_stats: NodeDomStats
    // keeps a pointer to its map, so the vector must never reallocate
    // afterwards.
    decoded->child_kcms.reserve(rec.count());
    for (uint32_t i = 0; i < rec.count(); ++i) {
      InnerEntry e;
      uint64_t ref = 0;
      if (!reader.GetVarint(&ref)) return corrupt("bad child reference");
      const PageId child = ChildRefPage(ref);
      if (child == 0 || child >= num_pages ||
          (ref >> 1) > 0xffffffffull) {
        return corrupt("child reference out of range");
      }
      e.child = child;
      if (!reader.GetRect(&e.mbr)) return corrupt("truncated inner entry");
      if (!reader.GetVarint32(&e.cnt)) return corrupt("bad subtree count");
      KeywordCountMap kcm;
      if (!GetKcmV2(&reader, &kcm)) {
        return corrupt("malformed keyword-count map");
      }
      bytes += sizeof(InnerEntry) + sizeof(KeywordCountMap) +
               kcm.SerializedSize();
      decoded->node.inner_entries.push_back(e);
      decoded->child_kcms.push_back(std::move(kcm));
    }
    decoded->child_stats.reserve(rec.count());
    for (size_t i = 0; i < decoded->node.inner_entries.size(); ++i) {
      const InnerEntry& e = decoded->node.inner_entries[i];
      decoded->child_stats.emplace_back(&decoded->child_kcms[i], e.cnt,
                                        e.mbr);
      bytes += decoded->child_stats.back().MemoryBytes();
    }
  }
  if (reader.remaining() != 0) {
    return corrupt("trailing bytes after the last entry");
  }
  decoded->memory_bytes = bytes;
  return StatusOr<std::shared_ptr<const DecodedNode>>(std::move(decoded));
}

StatusOr<KcrTree::Node> KcrTree::ReadNode(PageId page) const {
  StatusOr<std::shared_ptr<const DecodedNode>> decoded = DecodeNode(page);
  if (!decoded.ok()) return decoded.status();
  return decoded.value()->node;
}

StatusOr<NodeStat> KcrTree::StatNode(PageId page) const {
  return StatNodeRecord(pool_, page, &checksum_ledger_);
}

void KcrTree::AttachNodeCache(NodeCache* cache) {
  cache_ = cache;
  if (cache != nullptr && cache_tree_id_ == 0) {
    cache_tree_id_ = NodeCache::NextTreeId();
  }
}

StatusOr<std::shared_ptr<const KcrTree::DecodedNode>> KcrTree::ReadDecodedNode(
    PageId page, bool use_cache) const {
  NodeCache* cache = use_cache ? cache_ : nullptr;
  if (cache != nullptr) {
    std::shared_ptr<const DecodedNode> hit =
        cache->LookupAs<DecodedNode>(cache_tree_id_, page);
    IoStats& io = pool_->pager()->io_stats();
    if (hit != nullptr) {
      io.RecordNodeCacheHit();
      return StatusOr<std::shared_ptr<const DecodedNode>>(std::move(hit));
    }
    io.RecordNodeCacheMiss();
  }
  StatusOr<std::shared_ptr<const DecodedNode>> decoded = DecodeNode(page);
  if (!decoded.ok()) return decoded.status();
  if (cache != nullptr) {
    // Mapped leaves re-decode straight from the OS page cache with no
    // buffer-pool traffic, so caching them would only evict inner-node
    // skeletons that are worth far more per byte. Keep inner nodes.
    const bool cheap_to_redecode =
        decoded.value()->node.is_leaf && pool_->pager()->mapped();
    if (!cheap_to_redecode) {
      cache->Insert(cache_tree_id_, page, decoded.value(),
                    decoded.value()->memory_bytes, &FingerprintDecodedNode);
    }
  }
  return decoded;
}

StatusOr<KeywordCountMap> KcrTree::ReadRootKcm() const {
  if (height_ == 0) return KeywordCountMap();
  StatusOr<NodeRecordV2> record =
      ReadNodeRecordV2(pool_, root_kcm_page_, &checksum_ledger_);
  if (!record.ok()) return record.status();
  const NodeRecordV2& rec = record.value();
  CheckedReader reader(rec.body(), rec.body_bytes());
  KeywordCountMap kcm;
  if (rec.count() != 1 || !GetKcmV2(&reader, &kcm) ||
      reader.remaining() != 0) {
    return Status::Corruption("root keyword-count map at page " +
                              std::to_string(root_kcm_page_) +
                              " is malformed");
  }
  return kcm;
}

Status KcrTree::WriteMeta() {
  std::vector<uint8_t> bytes;
  ByteWriter writer(&bytes);
  writer.PutU32(kMagic);
  writer.PutU32(kMetaVersion);
  writer.PutU32(options_.capacity);
  writer.PutU32(0);  // reserved
  writer.PutU32(root_);
  writer.PutU32(height_);
  writer.PutU64(num_objects_);
  writer.PutDouble(diagonal_);
  writer.PutU8(static_cast<uint8_t>(options_.model));
  writer.PutU32(root_cnt_);
  writer.PutRect(root_mbr_);
  writer.PutU32(root_kcm_page_);
  bytes.resize(pool_->pager()->page_size(), 0);
  return WritePageBytes(pool_, meta_page_, bytes.data());
}

Status KcrTree::ReadMeta() {
  StatusOr<PageView> view = PageView::Read(pool_, meta_page_);
  if (!view.ok()) return view.status();
  ByteReader reader(view.value().data(), view.value().size());
  if (reader.GetU32() != kMagic) {
    return Status::Corruption("not a KcR-tree file");
  }
  const uint32_t version = reader.GetU32();
  if (version != kMetaVersion) {
    return Status::Corruption("unsupported KcR-tree version " +
                              std::to_string(version) +
                              " (this build reads version 3 only)");
  }
  options_.capacity = reader.GetU32();
  reader.GetU32();  // reserved
  root_ = reader.GetU32();
  height_ = reader.GetU32();
  num_objects_ = reader.GetU64();
  diagonal_ = reader.GetDouble();
  options_.model = static_cast<SimilarityModel>(reader.GetU8());
  root_cnt_ = reader.GetU32();
  root_mbr_ = reader.GetRect();
  root_kcm_page_ = reader.GetU32();
  return Status::Ok();
}

Status KcrTree::Finalize() {
  WSK_RETURN_IF_ERROR(WriteMeta());
  return pool_->FlushAll();
}

PageId KcrTree::SearchRoot() const {
  return height_ == 0 ? kInvalidPageId : root_;
}

namespace {

// Same kernel shortcut as SetRTree: one universe per node visit, one
// footprint + popcount per object (bit-identical scores).
void AppendKcrLeafEntries(const KcrTree::DecodedNode& decoded, double diagonal,
                          const SpatialKeywordQuery& query,
                          std::vector<SearchEntry>* out) {
  const KcrTree::Node& node = decoded.node;
  const double alpha = query.alpha;
  const CandidateUniverse qu = CandidateUniverse::Build(query.doc);
  const CandidateMask qmask = qu.valid() ? qu.FullMask() : 0;
  for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
    const KcrTree::LeafEntry& e = node.leaf_entries[i];
    const KeywordSet& doc = decoded.leaf_docs[i];
    const double sdist = Distance(e.loc, query.loc) / diagonal;
    const double tsim =
        qu.valid() ? ScoreCandidate(qu.FootprintOf(doc), qmask, query.model)
                   : TextualSimilarity(doc, query.doc, query.model);
    SearchEntry entry;
    entry.bound = alpha * (1.0 - sdist) + (1.0 - alpha) * tsim;
    entry.is_object = true;
    entry.object = e.object;
    out->push_back(entry);
  }
}

void AppendKcrInnerEntries(const KcrTree::DecodedNode& decoded,
                           double diagonal,
                           const SpatialKeywordQuery& query,
                           std::vector<SearchEntry>* out) {
  const KcrTree::Node& node = decoded.node;
  const double alpha = query.alpha;
  for (size_t i = 0; i < node.inner_entries.size(); ++i) {
    const KcrTree::InnerEntry& e = node.inner_entries[i];
    const KeywordCountMap& kcm = decoded.child_kcms[i];
    // Textual bound from the count map: an object below the child can share
    // at most the number of query terms present in the subtree.
    size_t present = 0;
    for (TermId t : query.doc) {
      if (kcm.CountOf(t) > 0) ++present;
    }
    double tsim_bound;
    switch (query.model) {
      case SimilarityModel::kJaccard:
        // |o ∩ q| <= present and |o ∪ q| >= |q|.
        tsim_bound = query.doc.empty()
                         ? 0.0
                         : static_cast<double>(present) / query.doc.size();
        break;
      case SimilarityModel::kDice:
        // |o.doc| >= 1 whenever the intersection is non-empty.
        tsim_bound = query.doc.empty()
                         ? 0.0
                         : 2.0 * present / (1.0 + query.doc.size());
        break;
      case SimilarityModel::kOverlap:
        tsim_bound = present > 0 ? 1.0 : 0.0;
        break;
      default:
        tsim_bound = 1.0;
        break;
    }
    const double min_sdist = MinDist(query.loc, e.mbr) / diagonal;
    SearchEntry entry;
    entry.bound = alpha * (1.0 - min_sdist) + (1.0 - alpha) * tsim_bound;
    entry.node = e.child;
    out->push_back(entry);
  }
}

}  // namespace

Status KcrTree::ExpandNode(PageId page, const SpatialKeywordQuery& query,
                           bool use_cache, std::vector<SearchEntry>* out)
    const {
  StatusOr<std::shared_ptr<const DecodedNode>> read =
      ReadDecodedNode(page, use_cache);
  if (!read.ok()) return read.status();
  const DecodedNode& decoded = *read.value();
  if (decoded.node.is_leaf) {
    AppendKcrLeafEntries(decoded, diagonal_, query, out);
  } else {
    AppendKcrInnerEntries(decoded, diagonal_, query, out);
  }
  return Status::Ok();
}

Status KcrTree::ExpandNodeBatch(PageId page,
                                const SpatialKeywordQuery* const* queries,
                                std::vector<SearchEntry>* const* outs,
                                size_t count, bool use_cache) const {
  if (count == 0) return Status::Ok();
  StatusOr<std::shared_ptr<const DecodedNode>> read =
      ReadDecodedNode(page, use_cache);
  if (!read.ok()) return read.status();
  const DecodedNode& decoded = *read.value();
  const Node& node = decoded.node;
  if (!node.is_leaf) {
    for (size_t qi = 0; qi < count; ++qi) {
      AppendKcrInnerEntries(decoded, diagonal_, *queries[qi], outs[qi]);
    }
    return Status::Ok();
  }
  // Leaf: one union universe + one footprint per object for the whole
  // batch, bit-identical per query (see SetRTree::ExpandNodeBatch).
  KeywordSet union_doc = queries[0]->doc;
  bool mixed_models = false;
  for (size_t qi = 1; qi < count; ++qi) {
    union_doc = union_doc.Union(queries[qi]->doc);
    if (queries[qi]->model != queries[0]->model) mixed_models = true;
  }
  const CandidateUniverse qu = CandidateUniverse::Build(union_doc);
  if (!qu.valid()) {
    for (size_t qi = 0; qi < count; ++qi) {
      AppendKcrLeafEntries(decoded, diagonal_, *queries[qi], outs[qi]);
    }
    return Status::Ok();
  }
  std::vector<CandidateMask> qmasks(count);
  for (size_t qi = 0; qi < count; ++qi) {
    qmasks[qi] = qu.MaskOf(queries[qi]->doc);
  }
  std::vector<double> tsims(count);
  for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
    const LeafEntry& e = node.leaf_entries[i];
    const Footprint fp = qu.FootprintOf(decoded.leaf_docs[i]);
    if (mixed_models) {
      for (size_t qi = 0; qi < count; ++qi) {
        tsims[qi] = ScoreCandidate(fp, qmasks[qi], queries[qi]->model);
      }
    } else {
      ScoreAllCandidates(fp, qmasks.data(), count, queries[0]->model,
                         tsims.data());
    }
    for (size_t qi = 0; qi < count; ++qi) {
      const SpatialKeywordQuery& query = *queries[qi];
      const double sdist = Distance(e.loc, query.loc) / diagonal_;
      SearchEntry entry;
      entry.bound = query.alpha * (1.0 - sdist) +
                    (1.0 - query.alpha) * tsims[qi];
      entry.is_object = true;
      entry.object = e.object;
      outs[qi]->push_back(entry);
    }
  }
  return Status::Ok();
}

}  // namespace wsk
