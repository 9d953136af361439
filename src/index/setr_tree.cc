#include "index/setr_tree.h"

#include <string>

#include "index/node_codec.h"
#include "index/str_pack.h"
#include "text/score_kernel.h"

namespace wsk {

namespace {

constexpr uint32_t kMagic = 0x53524b57;  // "WKRS"

// Digest of a decoded node's primary payload, used by the cache's
// no-mutation check (debug builds / sanitizer tests).
uint64_t FingerprintDecodedNode(const void* value) {
  const auto* decoded = static_cast<const SetRTree::DecodedNode*>(value);
  FingerprintHasher hasher;
  hasher.MixU64(decoded->node.is_leaf ? 1 : 0);
  hasher.MixU64(decoded->node.size());
  auto mix_set = [&hasher](const KeywordSet& set) {
    const std::vector<TermId>& terms = set.terms();
    hasher.Mix(terms.data(), terms.size() * sizeof(TermId));
  };
  if (decoded->node.is_leaf) {
    for (size_t i = 0; i < decoded->node.leaf_entries.size(); ++i) {
      const SetRTree::LeafEntry& e = decoded->node.leaf_entries[i];
      hasher.MixU64(e.object);
      hasher.Mix(&e.loc, sizeof(e.loc));
      mix_set(decoded->leaf_docs[i]);
    }
  } else {
    for (size_t i = 0; i < decoded->node.inner_entries.size(); ++i) {
      const SetRTree::InnerEntry& e = decoded->node.inner_entries[i];
      hasher.MixU64(e.child);
      hasher.Mix(&e.mbr, sizeof(e.mbr));
      mix_set(decoded->child_union[i]);
      mix_set(decoded->child_inter[i]);
    }
  }
  return hasher.digest();
}

}  // namespace

SetRTree::SetRTree(BufferPool* pool, const Options& options, double diagonal)
    : pool_(pool), options_(options), diagonal_(diagonal) {}

StatusOr<std::unique_ptr<SetRTree>> SetRTree::BulkLoad(const Dataset& dataset,
                                                       BufferPool* pool,
                                                       const Options& options) {
  return BulkLoadObjects(dataset.objects(), dataset.diagonal(), pool, options);
}

StatusOr<std::unique_ptr<SetRTree>> SetRTree::BulkLoadObjects(
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
        "SetRTree bulk load requires a fresh pager file");
  }
  if (diagonal <= 0.0) {
    return Status::InvalidArgument("diagonal must be positive");
  }
  std::unique_ptr<SetRTree> tree(new SetRTree(pool, options, diagonal));
  tree->meta_page_ = pool->pager()->AllocatePages(1);
  if (objects.empty()) {
    WSK_RETURN_IF_ERROR(tree->Finalize());
    return tree;
  }

  // Level summaries carried up between rounds of STR packing.
  struct Pending {
    PageId page;
    Summary summary;
    Point center;
  };

  // --- Leaf level ---
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
    bool first = true;
    std::vector<const KeywordSet*> docs;
    for (uint32_t idx : group) {
      const SpatialObject& o = objects[idx];
      docs.push_back(&o.doc);
      node.leaf_entries.push_back(LeafEntry{o.id, o.loc});
      summary.mbr.Extend(o.loc);
      summary.uni = summary.uni.Union(o.doc);
      summary.inter = first ? o.doc : summary.inter.Intersect(o.doc);
      first = false;
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

  // --- Upper levels ---
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
      bool first = true;
      std::vector<const KeywordSet*> unis, inters;
      for (uint32_t idx : group) {
        const Pending& child = level[idx];
        unis.push_back(&child.summary.uni);
        inters.push_back(&child.summary.inter);
        node.inner_entries.push_back(InnerEntry{child.page, child.summary.mbr});
        summary.mbr.Extend(child.summary.mbr);
        summary.uni = summary.uni.Union(child.summary.uni);
        summary.inter =
            first ? child.summary.inter
                  : summary.inter.Intersect(child.summary.inter);
        first = false;
      }
      StatusOr<PageId> page =
          tree->AppendNode(node, unis, inters, children_are_leaves);
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
  WSK_RETURN_IF_ERROR(tree->Finalize());
  return tree;
}

StatusOr<std::unique_ptr<SetRTree>> SetRTree::Open(BufferPool* pool) {
  std::unique_ptr<SetRTree> tree(new SetRTree(pool, Options{}, 1.0));
  tree->meta_page_ = 0;
  WSK_RETURN_IF_ERROR(tree->ReadMeta());
  return tree;
}

StatusOr<PageId> SetRTree::AppendNode(
    const Node& node, const std::vector<const KeywordSet*>& primary,
    const std::vector<const KeywordSet*>& secondary,
    bool children_are_leaves) {
  std::vector<uint8_t> body;
  if (node.is_leaf) {
    for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
      const LeafEntry& e = node.leaf_entries[i];
      PutVarint(&body, e.object);
      ByteWriter writer(&body);
      writer.PutDouble(e.loc.x);
      writer.PutDouble(e.loc.y);
      PutKeywordSetV2(&body, *primary[i]);
    }
  } else {
    for (size_t i = 0; i < node.inner_entries.size(); ++i) {
      const InnerEntry& e = node.inner_entries[i];
      PutVarint(&body, MakeChildRef(e.child, children_are_leaves));
      ByteWriter writer(&body);
      writer.PutRect(e.mbr);
      PutKeywordSetV2(&body, *primary[i]);
      PutKeywordSetV2(&body, *secondary[i]);
    }
  }
  return AppendNodeRecordV2(pool_, node.is_leaf,
                            static_cast<uint32_t>(node.size()), body);
}

StatusOr<std::shared_ptr<const SetRTree::DecodedNode>>
SetRTree::DecodeNode(PageId page) const {
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
    decoded->child_union.reserve(rec.count());
    decoded->child_inter.reserve(rec.count());
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
      KeywordSet uni, inter;
      if (!GetKeywordSetV2(&reader, &uni) ||
          !GetKeywordSetV2(&reader, &inter)) {
        return corrupt("malformed summary keyword set");
      }
      bytes += sizeof(InnerEntry) + 2 * sizeof(KeywordSet) +
               uni.SerializedSize() + inter.SerializedSize();
      decoded->node.inner_entries.push_back(e);
      decoded->child_union.push_back(std::move(uni));
      decoded->child_inter.push_back(std::move(inter));
    }
  }
  if (reader.remaining() != 0) {
    return corrupt("trailing bytes after the last entry");
  }
  decoded->memory_bytes = bytes;
  return StatusOr<std::shared_ptr<const DecodedNode>>(std::move(decoded));
}

StatusOr<SetRTree::Node> SetRTree::ReadNode(PageId page) const {
  StatusOr<std::shared_ptr<const DecodedNode>> decoded = DecodeNode(page);
  if (!decoded.ok()) return decoded.status();
  return decoded.value()->node;
}

StatusOr<NodeStat> SetRTree::StatNode(PageId page) const {
  return StatNodeRecord(pool_, page, &checksum_ledger_);
}

void SetRTree::AttachNodeCache(NodeCache* cache) {
  cache_ = cache;
  if (cache != nullptr && cache_tree_id_ == 0) {
    cache_tree_id_ = NodeCache::NextTreeId();
  }
}

StatusOr<std::shared_ptr<const SetRTree::DecodedNode>>
SetRTree::ReadDecodedNode(PageId page, bool use_cache) const {
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

Status SetRTree::WriteMeta() {
  std::vector<uint8_t> bytes;
  ByteWriter writer(&bytes);
  writer.PutU32(kMagic);
  writer.PutU32(kNodeFormatV2);  // meta version == node format
  writer.PutU32(options_.capacity);
  writer.PutU32(0);  // reserved
  writer.PutU32(root_);
  writer.PutU32(height_);
  writer.PutU64(num_objects_);
  writer.PutDouble(diagonal_);
  writer.PutU8(static_cast<uint8_t>(options_.model));
  bytes.resize(pool_->pager()->page_size(), 0);
  return WritePageBytes(pool_, meta_page_, bytes.data());
}

Status SetRTree::ReadMeta() {
  StatusOr<PageView> view = PageView::Read(pool_, meta_page_);
  if (!view.ok()) return view.status();
  ByteReader reader(view.value().data(), view.value().size());
  if (reader.GetU32() != kMagic) {
    return Status::Corruption("not a SetR-tree file");
  }
  const uint32_t version = reader.GetU32();
  if (version != kNodeFormatV2) {
    return Status::Corruption("unsupported SetR-tree version " +
                              std::to_string(version) +
                              " (this build reads version 2 only)");
  }
  options_.capacity = reader.GetU32();
  reader.GetU32();  // reserved
  root_ = reader.GetU32();
  height_ = reader.GetU32();
  num_objects_ = reader.GetU64();
  diagonal_ = reader.GetDouble();
  options_.model = static_cast<SimilarityModel>(reader.GetU8());
  return Status::Ok();
}

Status SetRTree::Finalize() {
  WSK_RETURN_IF_ERROR(WriteMeta());
  return pool_->FlushAll();
}

PageId SetRTree::SearchRoot() const {
  return height_ == 0 ? kInvalidPageId : root_;
}

namespace {

// Solo leaf scoring against an already-decoded node. Scoring kernel: freeze
// the (small) query doc as the universe once per node, then each object's
// similarity is one footprint + popcount (bit-identical to
// TextualSimilarity; docs/PERF.md).
void AppendLeafEntries(const SetRTree::DecodedNode& decoded, double diagonal,
                       const SpatialKeywordQuery& query,
                       std::vector<SearchEntry>* out) {
  const SetRTree::Node& node = decoded.node;
  const double alpha = query.alpha;
  const CandidateUniverse qu = CandidateUniverse::Build(query.doc);
  const CandidateMask qmask = qu.valid() ? qu.FullMask() : 0;
  for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
    const SetRTree::LeafEntry& e = node.leaf_entries[i];
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

void AppendInnerEntries(const SetRTree::DecodedNode& decoded, double diagonal,
                        const SpatialKeywordQuery& query,
                        std::vector<SearchEntry>* out) {
  const SetRTree::Node& node = decoded.node;
  const double alpha = query.alpha;
  for (size_t i = 0; i < node.inner_entries.size(); ++i) {
    const SetRTree::InnerEntry& e = node.inner_entries[i];
    const KeywordSet& uni = decoded.child_union[i];
    const KeywordSet& inter = decoded.child_inter[i];
    // Theorem 1: ST(o, q) <= alpha (1 - MinDist(q, N.mbr)) +
    //            (1 - alpha) |N_u ∩ q| / |N_i ∪ q| for every o under N.
    const double min_sdist = MinDist(query.loc, e.mbr) / diagonal;
    const double tsim_bound = NodeSimilarityUpperBound(
        uni.IntersectionSize(query.doc), inter.UnionSize(query.doc),
        inter.size(), query.doc.size(), query.model);
    SearchEntry entry;
    entry.bound = alpha * (1.0 - min_sdist) + (1.0 - alpha) * tsim_bound;
    entry.node = e.child;
    out->push_back(entry);
  }
}

}  // namespace

Status SetRTree::ExpandNode(PageId page, const SpatialKeywordQuery& query,
                            bool use_cache, std::vector<SearchEntry>* out)
    const {
  StatusOr<std::shared_ptr<const DecodedNode>> read =
      ReadDecodedNode(page, use_cache);
  if (!read.ok()) return read.status();
  const DecodedNode& decoded = *read.value();
  if (decoded.node.is_leaf) {
    AppendLeafEntries(decoded, diagonal_, query, out);
  } else {
    AppendInnerEntries(decoded, diagonal_, query, out);
  }
  return Status::Ok();
}

Status SetRTree::ExpandNodeBatch(PageId page,
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
    // Inner nodes: the decode is the shared cost; the Theorem 1 bound is a
    // per-query set computation either way.
    for (size_t qi = 0; qi < count; ++qi) {
      AppendInnerEntries(decoded, diagonal_, *queries[qi], outs[qi]);
    }
    return Status::Ok();
  }
  // Leaf: freeze the union of the batch's query docs as one universe, so
  // each object needs a single footprint for the whole batch. Every query
  // doc is a subset of the union, so |doc ∩ q| and |q| — the only inputs to
  // the similarity — are the integers the solo per-query universe produces,
  // and the scores are bit-identical (tests/batch_topk_test).
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
      AppendLeafEntries(decoded, diagonal_, *queries[qi], outs[qi]);
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
