#include "index/verify.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "data/generator.h"
#include "test_util.h"

namespace wsk {
namespace {

using testing::TempFile;

Dataset SmallDataset(uint32_t n, uint64_t seed) {
  GeneratorConfig config;
  config.num_objects = n;
  config.vocab_size = 30;
  config.seed = seed;
  return GenerateDataset(config);
}

TEST(VerifyTest, BulkLoadedSetRTreePasses) {
  const Dataset dataset = SmallDataset(300, 1);
  TempFile file("verify_setr");
  auto pager = Pager::Create(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  SetRTree::Options options;
  options.capacity = 8;
  auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
  VerifyStats stats;
  EXPECT_TRUE(VerifySetRTree(*tree, &stats).ok());
  EXPECT_EQ(stats.objects_seen, dataset.size());
  EXPECT_GT(stats.nodes_visited, 1u);
}

TEST(VerifyTest, BulkLoadedKcrTreePasses) {
  const Dataset dataset = SmallDataset(300, 3);
  TempFile file("verify_kcr");
  auto pager = Pager::Create(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  KcrTree::Options options;
  options.capacity = 8;
  auto tree = KcrTree::BulkLoad(dataset, &pool, options).value();
  VerifyStats stats;
  EXPECT_TRUE(VerifyKcrTree(*tree, &stats).ok());
  EXPECT_EQ(stats.objects_seen, dataset.size());
}

TEST(VerifyTest, EmptyTreesPass) {
  Dataset dataset;
  TempFile file("verify_empty");
  auto pager = Pager::Create(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  SetRTree::Options options;
  auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
  EXPECT_TRUE(VerifySetRTree(*tree).ok());
}

// Byte-level corruption injected through the pager must always surface as
// a Corruption status whose message names the violated invariant (and the
// offending page where the walk can attribute one) — never as a crash or a
// silent pass. Record header layout (storage/node_codec_v2.h): version u8
// at 0, kind u8 at 1, count u16 at 2, body_bytes u32 at 4, body checksum
// u32 at 8; the body starts at kNodeHeaderBytesV2.

// Rewrites one page of a closed index file in place. With `reseal`, the
// record's body checksum is recomputed after the edit, so the corruption
// reaches the structural checks instead of the checksum.
template <typename Edit>
void PatchRecord(const std::string& path, PageId page, bool reseal,
                 Edit edit) {
  auto pager = Pager::Open(path).value();
  std::vector<uint8_t> bytes(pager->page_size());
  ASSERT_TRUE(pager->ReadPage(page, bytes.data()).ok());
  edit(bytes.data());
  if (reseal) {
    uint32_t body_bytes = 0;
    std::memcpy(&body_bytes, bytes.data() + 4, sizeof(body_bytes));
    ASSERT_LE(kNodeHeaderBytesV2 + body_bytes, bytes.size());
    const uint32_t sum =
        Fnv1a32(bytes.data() + kNodeHeaderBytesV2, body_bytes);
    std::memcpy(bytes.data() + 8, &sum, sizeof(sum));
  }
  ASSERT_TRUE(pager->WritePage(page, bytes.data()).ok());
}

// The pages from the root down the first-entry path to a leaf.
template <typename Tree>
std::vector<PageId> LeftmostPath(const Tree& tree) {
  std::vector<PageId> path{tree.SearchRoot()};
  auto node = tree.ReadNode(path.back()).value();
  while (!node.is_leaf) {
    path.push_back(node.inner_entries[0].child);
    node = tree.ReadNode(path.back()).value();
  }
  return path;
}

// Builds a capacity-8 SetR-tree file and returns its leftmost root-to-leaf
// path (at least three levels at the sizes used here).
std::vector<PageId> BuildSetRFile(const Dataset& dataset,
                                  const std::string& path) {
  auto pager = Pager::Create(path).value();
  BufferPool pool(pager.get(), 4u << 20);
  SetRTree::Options options;
  options.capacity = 8;
  auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
  return LeftmostPath(*tree);
}

// Byte offset, from the start of the record, just past the leading fields
// `skip` consumes from the body of the record at `p`.
template <typename Skip>
size_t OffsetAfter(const uint8_t* p, Skip skip) {
  uint32_t body_bytes = 0;
  std::memcpy(&body_bytes, p + 4, sizeof(body_bytes));
  CheckedReader reader(p + kNodeHeaderBytesV2, body_bytes);
  skip(&reader);
  EXPECT_TRUE(reader.ok());
  return kNodeHeaderBytesV2 + body_bytes - reader.remaining();
}

void ExpectCorruption(const Status& status, const std::string& want) {
  ASSERT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find(want), std::string::npos)
      << status.ToString();
}

Status VerifySetRFile(const std::string& path) {
  auto pager = Pager::Open(path).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = SetRTree::Open(&pool).value();
  return VerifySetRTree(*tree);
}

// Shrinking a child's entry count leaves its remaining entries as trailing
// body bytes: the record no longer parses.
TEST(VerifyTest, DetectsShrunkenNode) {
  const Dataset dataset = SmallDataset(300, 5);
  TempFile file("verify_corrupt");
  const PageId victim = BuildSetRFile(dataset, file.path())[1];
  PatchRecord(file.path(), victim, /*reseal=*/false, [](uint8_t* p) {
    p[2] = 1;
    p[3] = 0;
  });
  ExpectCorruption(VerifySetRFile(file.path()),
                   "page " + std::to_string(victim) +
                       ": trailing bytes after the last entry");
}

// A leaf cut down to its first entry, body length and checksum resealed,
// is a well-formed record: only the parent's union check can catch it.
TEST(VerifyTest, DetectsUnionMismatchWithParent) {
  const Dataset dataset = SmallDataset(300, 5);
  TempFile file("verify_union");
  const std::vector<PageId> path = BuildSetRFile(dataset, file.path());
  ASSERT_GE(path.size(), 2u);
  const PageId parent = path[path.size() - 2];
  PatchRecord(file.path(), path.back(), /*reseal=*/true, [](uint8_t* p) {
    const size_t end = OffsetAfter(p, [](CheckedReader* r) {
      uint64_t object;
      double x, y;
      KeywordSet doc;
      r->GetVarint(&object);
      r->GetDouble(&x);
      r->GetDouble(&y);
      GetKeywordSetV2(r, &doc);
    });
    p[2] = 1;
    p[3] = 0;
    const uint32_t body_bytes =
        static_cast<uint32_t>(end - kNodeHeaderBytesV2);
    std::memcpy(p + 4, &body_bytes, sizeof(body_bytes));
  });
  ExpectCorruption(VerifySetRFile(file.path()),
                   "node " + std::to_string(parent) +
                       ": entry union set differs from subtree");
}

// With term 0 in every document, every stored intersection starts at 0.
// Moving the root's first stored intersection up by one term (same bytes,
// checksum resealed) leaves its union intact: only the intersection check
// can catch it.
TEST(VerifyTest, DetectsIntersectionMismatchWithParent) {
  const Dataset generated = SmallDataset(300, 10);
  Dataset dataset;
  for (const SpatialObject& o : generated.objects()) {
    dataset.Add(o.loc, o.doc.With(0));
  }
  TempFile file("verify_inter");
  const PageId root = BuildSetRFile(dataset, file.path())[0];
  PatchRecord(file.path(), root, /*reseal=*/true, [](uint8_t* p) {
    // First inner entry: child ref, MBR, union, then the intersection's
    // term count and first term id.
    const size_t at = OffsetAfter(p, [](CheckedReader* r) {
      uint64_t ref, count;
      Rect mbr;
      KeywordSet uni;
      r->GetVarint(&ref);
      r->GetRect(&mbr);
      GetKeywordSetV2(r, &uni);
      r->GetVarint(&count);
    });
    ASSERT_EQ(p[at], 0);  // first term of the intersection: term 0
    p[at] = 1;            // deltas unchanged: every term moves up by one
  });
  ExpectCorruption(VerifySetRFile(file.path()),
                   "node " + std::to_string(root) +
                       ": entry intersection set differs from subtree");
}

// A KcR entry whose recorded cnt disagrees with its subtree, in a record
// whose checksum was resealed: only the aggregate check can catch it.
TEST(VerifyTest, DetectsCountMismatchInKcrEntry) {
  const Dataset dataset = SmallDataset(200, 6);
  TempFile file("verify_kcr_cnt");
  PageId root_page;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    KcrTree::Options options;
    options.capacity = 8;
    auto tree = KcrTree::BulkLoad(dataset, &pool, options).value();
    root_page = tree->SearchRoot();
    ASSERT_FALSE(tree->ReadNode(root_page).value().is_leaf);
  }
  PatchRecord(file.path(), root_page, /*reseal=*/true, [](uint8_t* p) {
    // First inner entry: child-ref varint, 32-byte MBR, then the cnt
    // varint. Flip the low bit of its first byte (length unchanged).
    size_t at = kNodeHeaderBytesV2;
    while (p[at] & 0x80) ++at;
    at += 1 + 32;
    p[at] ^= 0x01;
  });
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = KcrTree::Open(&pool).value();
  const Status status = VerifyKcrTree(*tree);
  ASSERT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  const std::string want = "node " + std::to_string(root_page) +
                           ": entry cnt differs from subtree";
  EXPECT_NE(status.message().find(want), std::string::npos)
      << status.ToString();
}

// A KcR entry whose keyword-count map disagrees with its subtree while its
// cnt agrees, resealed: only the map comparison can catch it.
TEST(VerifyTest, DetectsKeywordCountMapMismatchInKcrEntry) {
  const Dataset dataset = SmallDataset(200, 6);
  TempFile file("verify_kcr_kcm");
  PageId root_page;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    KcrTree::Options options;
    options.capacity = 8;
    auto tree = KcrTree::BulkLoad(dataset, &pool, options).value();
    root_page = tree->SearchRoot();
    ASSERT_FALSE(tree->ReadNode(root_page).value().is_leaf);
  }
  PatchRecord(file.path(), root_page, /*reseal=*/true, [](uint8_t* p) {
    // First inner entry: child ref, MBR, cnt, then the map's pair count,
    // first term and that term's count.
    const size_t at = OffsetAfter(p, [](CheckedReader* r) {
      uint64_t ref, cnt, pairs, term;
      Rect mbr;
      r->GetVarint(&ref);
      r->GetRect(&mbr);
      r->GetVarint(&cnt);
      r->GetVarint(&pairs);
      r->GetVarint(&term);
    });
    ASSERT_LT(p[at], 0x7f);  // a one-byte count that stays one byte
    ++p[at];
  });
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = KcrTree::Open(&pool).value();
  ExpectCorruption(VerifyKcrTree(*tree),
                   "node " + std::to_string(root_page) +
                       ": entry keyword-count map differs");
}

// Zeroing a child's entry-count field empties the node.
TEST(VerifyTest, DetectsEmptyNode) {
  const Dataset dataset = SmallDataset(300, 7);
  TempFile file("verify_empty_node");
  const PageId victim = BuildSetRFile(dataset, file.path())[1];
  PatchRecord(file.path(), victim, /*reseal=*/false,
              [](uint8_t* p) { p[2] = p[3] = 0; });
  ExpectCorruption(VerifySetRFile(file.path()),
                   "node " + std::to_string(victim) + ": empty node");
}

// Flipping a leaf's kind byte turns it into an inner node at depth 1.
TEST(VerifyTest, DetectsLeafFlagFlip) {
  const Dataset dataset = SmallDataset(300, 8);
  TempFile file("verify_leaf_flag");
  const PageId victim = BuildSetRFile(dataset, file.path()).back();
  PatchRecord(file.path(), victim, /*reseal=*/false, [](uint8_t* p) {
    ASSERT_EQ(p[1], 0);  // leaf kind
    p[1] = 1;            // now claims to be inner
  });
  ExpectCorruption(VerifySetRFile(file.path()),
                   "node " + std::to_string(victim) +
                       ": leaf flag inconsistent with depth");
}

// An entry count far beyond what the record holds is rejected from the
// header by the verifier, and the query path's decode stops at the end of
// the body instead of reading past it.
TEST(VerifyTest, DetectsEntryCountOverflow) {
  const Dataset dataset = SmallDataset(200, 9);
  TempFile file("verify_count_overflow");
  for (const bool kcr : {false, true}) {
    SCOPED_TRACE(kcr ? "KcrTree" : "SetRTree");
    PageId victim;
    {
      auto pager = Pager::Create(file.path()).value();
      BufferPool pool(pager.get(), 4u << 20);
      if (kcr) {
        KcrTree::Options options;
        options.capacity = 8;
        victim = KcrTree::BulkLoad(dataset, &pool, options)
                     .value()
                     ->SearchRoot();
      } else {
        SetRTree::Options options;
        options.capacity = 8;
        victim = SetRTree::BulkLoad(dataset, &pool, options)
                     .value()
                     ->SearchRoot();
      }
    }
    PatchRecord(file.path(), victim, /*reseal=*/false,
                [](uint8_t* p) { p[2] = p[3] = 0xff; });  // count 65535
    auto pager = Pager::Open(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    Status status, decode;
    if (kcr) {
      auto tree = KcrTree::Open(&pool).value();
      status = VerifyKcrTree(*tree);
      decode = tree->ReadDecodedNode(victim, /*use_cache=*/false).status();
    } else {
      auto tree = SetRTree::Open(&pool).value();
      status = VerifySetRTree(*tree);
      decode = tree->ReadDecodedNode(victim, /*use_cache=*/false).status();
    }
    ASSERT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    const std::string want =
        "node " + std::to_string(victim) + ": fan-out exceeds capacity";
    EXPECT_NE(status.message().find(want), std::string::npos)
        << status.ToString();
    EXPECT_EQ(decode.code(), StatusCode::kCorruption) << decode.ToString();
    EXPECT_NE(decode.message().find("page " + std::to_string(victim)),
              std::string::npos)
        << decode.ToString();
  }
}

}  // namespace
}  // namespace wsk
