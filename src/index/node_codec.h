// Byte-level encode/decode helpers for tree metadata pages and node record
// bodies, plus meta-page I/O through the buffer pool.
#ifndef WSK_INDEX_NODE_CODEC_H_
#define WSK_INDEX_NODE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/node_codec_v2.h"
#include "text/keyword_set.h"

namespace wsk {

// Sequential little-endian writer over a caller-owned buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutRect(const Rect& r) {
    PutDouble(r.min_x);
    PutDouble(r.min_y);
    PutDouble(r.max_x);
    PutDouble(r.max_y);
  }
  void PutBytes(const uint8_t* data, size_t n) { PutRaw(data, n); }

  size_t size() const { return out_->size(); }

 private:
  void PutRaw(const void* data, size_t n) {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), bytes, bytes + n);
  }

  std::vector<uint8_t>* out_;
};

// Sequential reader; bounds-checked via WSK_CHECK (format errors inside the
// library's own pages indicate corruption bugs, not user input).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t GetU8() { return data_[Advance(1)]; }
  uint32_t GetU32() { return Get<uint32_t>(); }
  uint64_t GetU64() { return Get<uint64_t>(); }
  double GetDouble() { return Get<double>(); }
  Rect GetRect() {
    Rect r;
    r.min_x = GetDouble();
    r.min_y = GetDouble();
    r.max_x = GetDouble();
    r.max_y = GetDouble();
    return r;
  }
  const uint8_t* GetBytes(size_t n) { return data_ + Advance(n); }

  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  T Get() {
    T v;
    std::memcpy(&v, data_ + Advance(sizeof(T)), sizeof(T));
    return v;
  }
  size_t Advance(size_t n) {
    WSK_CHECK_MSG(pos_ + n <= size_, "decode overrun (%zu + %zu > %zu)", pos_,
                  n, size_);
    const size_t p = pos_;
    pos_ += n;
    return p;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Zero-copy view over one page, for the tree meta pages (always a single
// page; node records are read with ReadNodeRecordV2).
//
// The view borrows the bytes: from the pager's read-only mapping in mapped
// mode, else from the pinned buffer-pool frame, whose PageHandle the view
// holds so the span stays valid for the view's lifetime. The bytes are
// read-only; decode them in place with ByteReader, and drop the view
// promptly afterwards — it may be pinning a buffer-pool frame.
class PageView {
 public:
  PageView() = default;  // empty view (data() == nullptr); see Read
  PageView(PageView&&) = default;
  PageView& operator=(PageView&&) = default;
  PageView(const PageView&) = delete;
  PageView& operator=(const PageView&) = delete;

  static StatusOr<PageView> Read(BufferPool* pool, PageId page);

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  // True when the view borrows a mapped span rather than a pinned frame.
  bool mapped() const { return mapped_; }

 private:
  PageHandle pin_;  // buffered path: keeps the span alive
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
};

// Writes one page of `data` (page_size bytes) over `page` in the pool.
Status WritePageBytes(BufferPool* pool, PageId page, const uint8_t* data);

// Per-node layout facts for introspection (wsk_cli inspect, the index
// verifier).
struct NodeStat {
  bool is_leaf = true;
  uint32_t entries = 0;
  uint32_t record_bytes = 0;  // serialized bytes before page padding
  uint32_t record_pages = 0;  // pages the record occupies on disk
};

// Reads only the record header at `page` (plus the first-touch body
// checksum, per `ledger`); no entry is decoded.
StatusOr<NodeStat> StatNodeRecord(BufferPool* pool, PageId page,
                                  ChecksumLedger* ledger);

// Node record body encoding of one keyword set: varint term count, then the
// sorted ids delta-coded.
void PutKeywordSetV2(std::vector<uint8_t>* body, const KeywordSet& set);

// The inverse; false (Corruption at the caller) on any malformed byte.
bool GetKeywordSetV2(CheckedReader* reader, KeywordSet* out);

}  // namespace wsk

#endif  // WSK_INDEX_NODE_CODEC_H_
