// On-disk byte pins for both packed trees: bulk-loading a fixed seeded
// dataset must write exactly the recorded files (records, meta pages and
// body checksums). Any change to the leaf codec, the inner summaries, the
// STR grouping or the meta layout moves a digest; such a change must be a
// deliberate format change with a version bump, not a refactoring side
// effect.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "data/generator.h"
#include "index/kcr_tree.h"
#include "index/setr_tree.h"
#include "test_util.h"

namespace wsk {
namespace {

using testing::TempFile;

uint64_t Fnv1a64(const std::vector<char>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct FileDigest {
  uint64_t size = 0;
  uint64_t fnv = 0;
};

template <typename Tree>
FileDigest BuildAndDigest(const Dataset& dataset, uint32_t capacity) {
  TempFile file("pin");
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    typename Tree::Options options;
    options.capacity = capacity;
    auto tree = Tree::BulkLoad(dataset, &pool, options);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  }
  std::ifstream in(file.path(), std::ios::binary);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  return FileDigest{bytes.size(), Fnv1a64(bytes)};
}

Dataset PinnedDataset() {
  GeneratorConfig config;
  config.num_objects = 3000;
  config.vocab_size = 300;
  config.seed = 20160516;
  return GenerateDataset(config);
}

struct Pin {
  uint32_t capacity;
  FileDigest setr;
  FileDigest kcr;
};

TEST(PackedTreeTest, FileBytesMatchPinnedDigests) {
  const Dataset dataset = PinnedDataset();
  const Pin pins[] = {
      {100, {135168, 0x816b4c1f04822c3eull}, {143360, 0xf56ceb3002df5340ull}},
      {8, {1798144, 0x5e77e483ab427db6ull}, {1806336, 0x9dc5b7242e75a846ull}},
  };
  for (const Pin& pin : pins) {
    const FileDigest setr = BuildAndDigest<SetRTree>(dataset, pin.capacity);
    const FileDigest kcr = BuildAndDigest<KcrTree>(dataset, pin.capacity);
    EXPECT_EQ(setr.size, pin.setr.size) << "capacity " << pin.capacity;
    EXPECT_EQ(setr.fnv, pin.setr.fnv)
        << "capacity " << pin.capacity << " SetR digest 0x" << std::hex
        << setr.fnv;
    EXPECT_EQ(kcr.size, pin.kcr.size) << "capacity " << pin.capacity;
    EXPECT_EQ(kcr.fnv, pin.kcr.fnv)
        << "capacity " << pin.capacity << " KcR digest 0x" << std::hex
        << kcr.fnv;
  }
}

}  // namespace
}  // namespace wsk
