// Randomized round-trip testing of the byte codecs under the node records
// and meta pages: whatever the writers produce, the readers must
// reconstruct bit-exactly, across sizes from empty up.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/node_codec.h"
#include "text/keyword_set.h"

namespace wsk {
namespace {

// The node-record payload codec (delta-coded ids): a run of sets encoded
// back to back decodes to the same sets and consumes every byte.
TEST(SerializationFuzzTest, RecordKeywordSetsRoundTrip) {
  Rng rng(3);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<KeywordSet> sets;
    std::vector<uint8_t> body;
    const size_t count = rng.NextUint64(8);
    for (size_t s = 0; s < count; ++s) {
      std::vector<TermId> terms;
      const size_t n = rng.NextUint64(40);
      for (size_t i = 0; i < n; ++i) {
        terms.push_back(static_cast<TermId>(rng.Next()));  // full 32-bit ids
      }
      sets.emplace_back(std::move(terms));
      PutKeywordSetV2(&body, sets.back());
    }
    CheckedReader reader(body.data(), body.size());
    for (const KeywordSet& want : sets) {
      KeywordSet got;
      ASSERT_TRUE(GetKeywordSetV2(&reader, &got));
      EXPECT_EQ(got, want);
    }
    EXPECT_EQ(reader.remaining(), 0u);
  }
}

TEST(SerializationFuzzTest, ByteWriterReaderRandomSequences) {
  Rng rng(5);
  for (int iter = 0; iter < 100; ++iter) {
    // Record a random schema, write it, read it back.
    std::vector<int> schema;
    std::vector<uint64_t> ints;
    std::vector<double> doubles;
    std::vector<uint8_t> bytes;
    ByteWriter writer(&bytes);
    const size_t fields = 1 + rng.NextUint64(20);
    for (size_t i = 0; i < fields; ++i) {
      switch (rng.NextUint64(4)) {
        case 0: {
          const uint8_t v = static_cast<uint8_t>(rng.Next());
          writer.PutU8(v);
          schema.push_back(0);
          ints.push_back(v);
          break;
        }
        case 1: {
          const uint32_t v = static_cast<uint32_t>(rng.Next());
          writer.PutU32(v);
          schema.push_back(1);
          ints.push_back(v);
          break;
        }
        case 2: {
          const uint64_t v = rng.Next();
          writer.PutU64(v);
          schema.push_back(2);
          ints.push_back(v);
          break;
        }
        default: {
          const double v = rng.NextDouble(-1e6, 1e6);
          writer.PutDouble(v);
          schema.push_back(3);
          doubles.push_back(v);
          break;
        }
      }
    }
    ByteReader reader(bytes.data(), bytes.size());
    size_t int_index = 0, double_index = 0;
    for (int kind : schema) {
      switch (kind) {
        case 0:
          EXPECT_EQ(reader.GetU8(), static_cast<uint8_t>(ints[int_index++]));
          break;
        case 1:
          EXPECT_EQ(reader.GetU32(),
                    static_cast<uint32_t>(ints[int_index++]));
          break;
        case 2:
          EXPECT_EQ(reader.GetU64(), ints[int_index++]);
          break;
        default:
          EXPECT_DOUBLE_EQ(reader.GetDouble(), doubles[double_index++]);
          break;
      }
    }
    EXPECT_EQ(reader.remaining(), 0u);
  }
}

}  // namespace
}  // namespace wsk
