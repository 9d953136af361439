#include "index/verify.h"

#include <string>

namespace wsk {

namespace {

Status CorruptionAt(PageId page, const std::string& what) {
  return Status::Corruption("node " + std::to_string(page) + ": " + what);
}

struct SetRFacts {
  Rect mbr;
  KeywordSet uni;
  KeywordSet inter;
  uint64_t objects = 0;
};

// Structural checks on the record header alone, before any entry is
// decoded: a header that lies about its kind or count makes the body parse
// as garbage, and the diagnostic should name the header fault.
template <typename Tree>
Status CheckHeader(const Tree& tree, PageId page, uint32_t level,
                   VerifyStats* stats) {
  StatusOr<NodeStat> head = tree.StatNode(page);
  if (!head.ok()) return head.status();
  ++stats->nodes_visited;
  if (head.value().entries == 0) return CorruptionAt(page, "empty node");
  if (head.value().entries > tree.options().capacity) {
    return CorruptionAt(page, "fan-out exceeds capacity");
  }
  if (head.value().is_leaf != (level == 1)) {
    return CorruptionAt(page, "leaf flag inconsistent with depth");
  }
  return Status::Ok();
}

// Walks over fully decoded nodes (ReadDecodedNode, uncached).
Status WalkSetR(const SetRTree& tree, PageId page, uint32_t level,
                VerifyStats* stats, SetRFacts* out) {
  WSK_RETURN_IF_ERROR(CheckHeader(tree, page, level, stats));

  StatusOr<std::shared_ptr<const SetRTree::DecodedNode>> read =
      tree.ReadDecodedNode(page, /*use_cache=*/false);
  if (!read.ok()) return read.status();
  const SetRTree::DecodedNode& decoded = *read.value();
  const SetRTree::Node& node = decoded.node;

  SetRFacts facts;
  bool first = true;
  if (node.is_leaf) {
    for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
      const SetRTree::LeafEntry& e = node.leaf_entries[i];
      const KeywordSet& doc = decoded.leaf_docs[i];
      ++stats->payloads_read;
      ++stats->objects_seen;
      facts.mbr.Extend(e.loc);
      facts.uni = facts.uni.Union(doc);
      facts.inter = first ? doc : facts.inter.Intersect(doc);
      facts.objects += 1;
      first = false;
    }
  } else {
    for (size_t i = 0; i < node.inner_entries.size(); ++i) {
      const SetRTree::InnerEntry& e = node.inner_entries[i];
      SetRFacts child;
      WSK_RETURN_IF_ERROR(WalkSetR(tree, e.child, level - 1, stats, &child));
      if (!e.mbr.ContainsRect(child.mbr)) {
        return CorruptionAt(page, "entry MBR does not contain its subtree");
      }
      const KeywordSet& uni = decoded.child_union[i];
      const KeywordSet& inter = decoded.child_inter[i];
      stats->payloads_read += 2;
      if (!(uni == child.uni)) {
        return CorruptionAt(page, "entry union set differs from subtree");
      }
      if (!(inter == child.inter)) {
        return CorruptionAt(page,
                            "entry intersection set differs from subtree");
      }
      facts.mbr.Extend(child.mbr);
      facts.uni = facts.uni.Union(child.uni);
      facts.inter = first ? child.inter : facts.inter.Intersect(child.inter);
      facts.objects += child.objects;
      first = false;
    }
  }
  *out = std::move(facts);
  return Status::Ok();
}

struct KcrFacts {
  Rect mbr;
  KeywordCountMap kcm;
  uint64_t objects = 0;
};

Status WalkKcr(const KcrTree& tree, PageId page, uint32_t level,
               VerifyStats* stats, KcrFacts* out) {
  WSK_RETURN_IF_ERROR(CheckHeader(tree, page, level, stats));

  StatusOr<std::shared_ptr<const KcrTree::DecodedNode>> read =
      tree.ReadDecodedNode(page, /*use_cache=*/false);
  if (!read.ok()) return read.status();
  const KcrTree::DecodedNode& decoded = *read.value();
  const KcrTree::Node& node = decoded.node;

  KcrFacts facts;
  if (node.is_leaf) {
    for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
      const KcrTree::LeafEntry& e = node.leaf_entries[i];
      ++stats->payloads_read;
      ++stats->objects_seen;
      facts.mbr.Extend(e.loc);
      facts.kcm.AddDoc(decoded.leaf_docs[i]);
      facts.objects += 1;
    }
  } else {
    for (size_t i = 0; i < node.inner_entries.size(); ++i) {
      const KcrTree::InnerEntry& e = node.inner_entries[i];
      KcrFacts child;
      WSK_RETURN_IF_ERROR(WalkKcr(tree, e.child, level - 1, stats, &child));
      if (!e.mbr.ContainsRect(child.mbr)) {
        return CorruptionAt(page, "entry MBR does not contain its subtree");
      }
      if (e.cnt != child.objects) {
        return CorruptionAt(page, "entry cnt differs from subtree");
      }
      ++stats->payloads_read;
      if (!(decoded.child_kcms[i] == child.kcm)) {
        return CorruptionAt(page, "entry keyword-count map differs");
      }
      facts.mbr.Extend(child.mbr);
      facts.kcm.Merge(child.kcm);
      facts.objects += child.objects;
    }
  }
  *out = std::move(facts);
  return Status::Ok();
}

// The prelude both verifiers share: an empty tree must claim no objects,
// and a walk from the root must reach exactly num_objects() objects.
template <typename Tree, typename Facts>
Status WalkWholeTree(const Tree& tree,
                     Status (*walk)(const Tree&, PageId, uint32_t,
                                    VerifyStats*, Facts*),
                     VerifyStats* stats, Facts* facts) {
  VerifyStats local;
  if (stats == nullptr) stats = &local;
  *stats = VerifyStats{};
  if (tree.height() == 0) {
    return tree.num_objects() == 0
               ? Status::Ok()
               : Status::Corruption("empty tree claims objects");
  }
  WSK_RETURN_IF_ERROR(
      walk(tree, tree.SearchRoot(), tree.height(), stats, facts));
  if (facts->objects != tree.num_objects()) {
    return Status::Corruption("reachable objects differ from num_objects");
  }
  return Status::Ok();
}

}  // namespace

Status VerifySetRTree(const SetRTree& tree, VerifyStats* stats) {
  SetRFacts facts;
  return WalkWholeTree(tree, &WalkSetR, stats, &facts);
}

Status VerifyKcrTree(const KcrTree& tree, VerifyStats* stats) {
  KcrFacts facts;
  WSK_RETURN_IF_ERROR(WalkWholeTree(tree, &WalkKcr, stats, &facts));
  // An empty tree reaches nothing and its root summary is zero.
  if (facts.objects != tree.root_cnt()) {
    return Status::Corruption("root cnt differs from reachable objects");
  }
  StatusOr<KeywordCountMap> root_kcm = tree.ReadRootKcm();
  if (!root_kcm.ok()) return root_kcm.status();
  if (!(root_kcm.value() == facts.kcm)) {
    return Status::Corruption("root keyword-count map differs from subtree");
  }
  return Status::Ok();
}

}  // namespace wsk
