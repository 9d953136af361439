#include "index/packed_rtree.h"

#include <string>

#include "index/kcr_tree.h"
#include "index/setr_tree.h"
#include "index/str_pack.h"
#include "text/score_kernel.h"

namespace wsk {

namespace {

Point CenterOf(const Rect& r) {
  return Point{(r.min_x + r.max_x) / 2, (r.min_y + r.max_y) / 2};
}

// Solo leaf scoring against an already-decoded node. Scoring kernel: freeze
// the (small) query doc as the universe once per node, then each object's
// similarity is one footprint + popcount (bit-identical to
// TextualSimilarity; docs/PERF.md).
void AppendLeafEntries(const std::vector<PackedLeafEntry>& entries,
                       const std::vector<KeywordSet>& docs, double diagonal,
                       const SpatialKeywordQuery& query,
                       std::vector<SearchEntry>* out) {
  const double alpha = query.alpha;
  const CandidateUniverse qu = CandidateUniverse::Build(query.doc);
  const CandidateMask qmask = qu.valid() ? qu.FullMask() : 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const PackedLeafEntry& e = entries[i];
    const KeywordSet& doc = docs[i];
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

// Batched leaf scoring: freeze the union of the batch's query docs as one
// universe, so each object needs a single footprint for the whole batch.
// Every query doc is a subset of the union, so |doc ∩ q| and |q| — the only
// inputs to the similarity — are the integers the solo per-query universe
// produces, and the scores are bit-identical (tests/batch_topk_test).
void AppendLeafEntriesBatch(const std::vector<PackedLeafEntry>& entries,
                            const std::vector<KeywordSet>& docs,
                            double diagonal,
                            const SpatialKeywordQuery* const* queries,
                            std::vector<SearchEntry>* const* outs,
                            size_t count) {
  KeywordSet union_doc = queries[0]->doc;
  bool mixed_models = false;
  for (size_t qi = 1; qi < count; ++qi) {
    union_doc = union_doc.Union(queries[qi]->doc);
    if (queries[qi]->model != queries[0]->model) mixed_models = true;
  }
  const CandidateUniverse qu = CandidateUniverse::Build(union_doc);
  if (!qu.valid()) {
    // Union too wide for one mask: per-query universes, shared decode.
    for (size_t qi = 0; qi < count; ++qi) {
      AppendLeafEntries(entries, docs, diagonal, *queries[qi], outs[qi]);
    }
    return;
  }
  std::vector<CandidateMask> qmasks(count);
  for (size_t qi = 0; qi < count; ++qi) {
    qmasks[qi] = qu.MaskOf(queries[qi]->doc);
  }
  std::vector<double> tsims(count);
  for (size_t i = 0; i < entries.size(); ++i) {
    const PackedLeafEntry& e = entries[i];
    const Footprint fp = qu.FootprintOf(docs[i]);
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
      const double sdist = Distance(e.loc, query.loc) / diagonal;
      SearchEntry entry;
      entry.bound = query.alpha * (1.0 - sdist) +
                    (1.0 - query.alpha) * tsims[qi];
      entry.is_object = true;
      entry.object = e.object;
      outs[qi]->push_back(entry);
    }
  }
}

}  // namespace

template <typename Kind>
Status PackedRTree<Kind>::CheckBulkLoad(BufferPool* pool,
                                        const Options& options,
                                        double diagonal) {
  if (options.capacity < 2) {
    return Status::InvalidArgument("node capacity must be at least 2");
  }
  if (options.capacity > kMaxNodeCountV2) {
    return Status::InvalidArgument("node capacity exceeds u16");
  }
  if (pool->pager()->num_pages() != 0) {
    return Status::FailedPrecondition(std::string(Kind::kClassName) +
                                      " bulk load requires a fresh pager file");
  }
  if (diagonal <= 0.0) {
    return Status::InvalidArgument("diagonal must be positive");
  }
  return Status::Ok();
}

template <typename Kind>
Status PackedRTree<Kind>::Pack(const std::vector<SpatialObject>& objects) {
  meta_page_ = pool_->pager()->AllocatePages(1);
  if (objects.empty()) return Status::Ok();

  // Level summaries carried up between rounds of STR packing.
  struct Pending {
    PageId page;
    Rect mbr;
    Summary summary;
  };

  // --- Leaf level: (object, point, pks) per entry ---
  std::vector<Point> centers;
  centers.reserve(objects.size());
  for (const SpatialObject& o : objects) centers.push_back(o.loc);
  std::vector<std::vector<uint32_t>> groups =
      StrPack(centers, options_.capacity);

  std::vector<Pending> level;
  level.reserve(groups.size());
  for (const std::vector<uint32_t>& group : groups) {
    Pending pending{};
    std::vector<uint8_t> body;
    bool first = true;
    for (uint32_t idx : group) {
      const SpatialObject& o = objects[idx];
      PutVarint(&body, o.id);
      ByteWriter writer(&body);
      writer.PutDouble(o.loc.x);
      writer.PutDouble(o.loc.y);
      PutKeywordSetV2(&body, o.doc);
      pending.mbr.Extend(o.loc);
      Kind::AddDoc(&pending.summary, o.doc, first);
      first = false;
    }
    StatusOr<PageId> page = AppendNodeRecordV2(
        pool_, /*is_leaf=*/true, static_cast<uint32_t>(group.size()), body);
    if (!page.ok()) return page.status();
    pending.page = page.value();
    level.push_back(std::move(pending));
  }
  height_ = 1;
  num_objects_ = objects.size();

  // --- Upper levels: (child ref, mbr, Kind summary) per entry ---
  bool children_are_leaves = true;
  while (level.size() > 1) {
    centers.clear();
    for (const Pending& p : level) centers.push_back(CenterOf(p.mbr));
    groups = StrPack(centers, options_.capacity);
    std::vector<Pending> next;
    next.reserve(groups.size());
    for (const std::vector<uint32_t>& group : groups) {
      Pending pending{};
      std::vector<uint8_t> body;
      bool first = true;
      for (uint32_t idx : group) {
        const Pending& child = level[idx];
        PutVarint(&body, MakeChildRef(child.page, children_are_leaves));
        ByteWriter(&body).PutRect(child.mbr);
        Kind::PutSummary(&body, child.summary);
        pending.mbr.Extend(child.mbr);
        Kind::AddChild(&pending.summary, child.summary, first);
        first = false;
      }
      StatusOr<PageId> page = AppendNodeRecordV2(
          pool_, /*is_leaf=*/false, static_cast<uint32_t>(group.size()), body);
      if (!page.ok()) return page.status();
      pending.page = page.value();
      next.push_back(std::move(pending));
    }
    level = std::move(next);
    children_are_leaves = false;
    ++height_;
  }
  root_ = level.front().page;
  return Kind::FinishRoot(pool_, level.front().mbr, level.front().summary,
                          &meta_tail_);
}

template <typename Kind>
StatusOr<std::shared_ptr<const typename PackedRTree<Kind>::DecodedNode>>
PackedRTree<Kind>::DecodeNode(PageId page) const {
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
    Kind::Reserve(decoded.get(), rec.count());
    for (uint32_t i = 0; i < rec.count(); ++i) {
      InnerEntry e;
      uint64_t ref = 0;
      if (!reader.GetVarint(&ref)) return corrupt("bad child reference");
      const PageId child = ChildRefPage(ref);
      // Page 0 is the meta page; a child there or past the file is a
      // corrupted reference, caught before anyone tries to follow it.
      if (child == 0 || child >= num_pages ||
          (ref >> 1) > 0xffffffffull) {
        return corrupt("child reference out of range");
      }
      e.child = child;
      if (!reader.GetRect(&e.mbr)) return corrupt("truncated inner entry");
      if (const char* error =
              Kind::GetSummary(&reader, &e, decoded.get(), &bytes)) {
        return corrupt(error);
      }
      bytes += sizeof(InnerEntry);
      decoded->node.inner_entries.push_back(e);
    }
    Kind::FinishInner(decoded->node.inner_entries, decoded.get(), &bytes);
  }
  if (reader.remaining() != 0) {
    return corrupt("trailing bytes after the last entry");
  }
  decoded->memory_bytes = bytes;
  return StatusOr<std::shared_ptr<const DecodedNode>>(std::move(decoded));
}

// Digest of a decoded node's payload, used by the cache's no-mutation check
// (debug builds / sanitizer tests).
template <typename Kind>
uint64_t PackedRTree<Kind>::Fingerprint(const void* value) {
  const auto* decoded = static_cast<const DecodedNode*>(value);
  FingerprintHasher hasher;
  hasher.MixU64(decoded->node.is_leaf ? 1 : 0);
  hasher.MixU64(decoded->node.size());
  for (size_t i = 0; i < decoded->node.leaf_entries.size(); ++i) {
    const LeafEntry& e = decoded->node.leaf_entries[i];
    hasher.MixU64(e.object);
    hasher.Mix(&e.loc, sizeof(e.loc));
    const std::vector<TermId>& terms = decoded->leaf_docs[i].terms();
    hasher.Mix(terms.data(), terms.size() * sizeof(TermId));
  }
  for (size_t i = 0; i < decoded->node.inner_entries.size(); ++i) {
    const InnerEntry& e = decoded->node.inner_entries[i];
    hasher.MixU64(e.child);
    hasher.Mix(&e.mbr, sizeof(e.mbr));
    Kind::MixInner(&hasher, e, *decoded, i);
  }
  return hasher.digest();
}

template <typename Kind>
StatusOr<typename PackedRTree<Kind>::Node> PackedRTree<Kind>::ReadNode(
    PageId page) const {
  StatusOr<std::shared_ptr<const DecodedNode>> decoded = DecodeNode(page);
  if (!decoded.ok()) return decoded.status();
  return decoded.value()->node;
}

template <typename Kind>
StatusOr<NodeStat> PackedRTree<Kind>::StatNode(PageId page) const {
  return StatNodeRecord(pool_, page, &checksum_ledger_);
}

template <typename Kind>
void PackedRTree<Kind>::AttachNodeCache(NodeCache* cache) {
  cache_ = cache;
  if (cache != nullptr && cache_tree_id_ == 0) {
    cache_tree_id_ = NodeCache::NextTreeId();
  }
}

template <typename Kind>
StatusOr<std::shared_ptr<const typename PackedRTree<Kind>::DecodedNode>>
PackedRTree<Kind>::ReadDecodedNode(PageId page, bool use_cache) const {
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
                    decoded.value()->memory_bytes, &Fingerprint);
    }
  }
  return decoded;
}

// Meta page: a prefix both trees share, then the Kind's tail.
template <typename Kind>
Status PackedRTree<Kind>::WriteMeta() {
  std::vector<uint8_t> bytes;
  ByteWriter writer(&bytes);
  writer.PutU32(Kind::kMagic);
  writer.PutU32(Kind::kMetaVersion);
  writer.PutU32(options_.capacity);
  writer.PutU32(0);  // reserved
  writer.PutU32(root_);
  writer.PutU32(height_);
  writer.PutU64(num_objects_);
  writer.PutDouble(diagonal_);
  writer.PutU8(static_cast<uint8_t>(options_.model));
  meta_tail_.Put(&writer);
  bytes.resize(pool_->pager()->page_size(), 0);
  return WritePageBytes(pool_, meta_page_, bytes.data());
}

template <typename Kind>
Status PackedRTree<Kind>::ReadMeta() {
  StatusOr<PageView> view = PageView::Read(pool_, meta_page_);
  if (!view.ok()) return view.status();
  ByteReader reader(view.value().data(), view.value().size());
  if (reader.GetU32() != Kind::kMagic) {
    return Status::Corruption(std::string("not a ") + Kind::kName + " file");
  }
  const uint32_t version = reader.GetU32();
  if (version != Kind::kMetaVersion) {
    return Status::Corruption(
        std::string("unsupported ") + Kind::kName + " version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(Kind::kMetaVersion) + " only)");
  }
  options_.capacity = reader.GetU32();
  reader.GetU32();  // reserved
  root_ = reader.GetU32();
  height_ = reader.GetU32();
  num_objects_ = reader.GetU64();
  diagonal_ = reader.GetDouble();
  options_.model = static_cast<SimilarityModel>(reader.GetU8());
  meta_tail_.Get(&reader);
  return Status::Ok();
}

template <typename Kind>
Status PackedRTree<Kind>::Finalize() {
  WSK_RETURN_IF_ERROR(WriteMeta());
  return pool_->FlushAll();
}

template <typename Kind>
PageId PackedRTree<Kind>::SearchRoot() const {
  return height_ == 0 ? kInvalidPageId : root_;
}

template <typename Kind>
Status PackedRTree<Kind>::ExpandNode(PageId page,
                                     const SpatialKeywordQuery& query,
                                     bool use_cache,
                                     std::vector<SearchEntry>* out) const {
  StatusOr<std::shared_ptr<const DecodedNode>> read =
      ReadDecodedNode(page, use_cache);
  if (!read.ok()) return read.status();
  const DecodedNode& decoded = *read.value();
  if (decoded.node.is_leaf) {
    AppendLeafEntries(decoded.node.leaf_entries, decoded.leaf_docs,
                      diagonal_, query, out);
  } else {
    Kind::AppendInnerEntries(decoded.node.inner_entries, decoded, diagonal_,
                             query, out);
  }
  return Status::Ok();
}

template <typename Kind>
Status PackedRTree<Kind>::ExpandNodeBatch(
    PageId page, const SpatialKeywordQuery* const* queries,
    std::vector<SearchEntry>* const* outs, size_t count,
    bool use_cache) const {
  if (count == 0) return Status::Ok();
  StatusOr<std::shared_ptr<const DecodedNode>> read =
      ReadDecodedNode(page, use_cache);
  if (!read.ok()) return read.status();
  const DecodedNode& decoded = *read.value();
  if (decoded.node.is_leaf) {
    AppendLeafEntriesBatch(decoded.node.leaf_entries, decoded.leaf_docs,
                           diagonal_, queries, outs, count);
    return Status::Ok();
  }
  // Inner nodes: the decode is the shared cost; the bound is a per-query
  // computation either way.
  for (size_t qi = 0; qi < count; ++qi) {
    Kind::AppendInnerEntries(decoded.node.inner_entries, decoded, diagonal_,
                             *queries[qi], outs[qi]);
  }
  return Status::Ok();
}

template class PackedRTree<SetRKind>;
template class PackedRTree<KcrKind>;

}  // namespace wsk
