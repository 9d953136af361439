#include "index/node_codec.h"

#include <algorithm>

namespace wsk {

StatusOr<PageView> PageView::Read(BufferPool* pool, PageId page) {
  const uint32_t page_size = pool->pager()->page_size();
  PageView view;
  if (pool->pager()->mapped()) {
    // Mapped read mode: borrow the span straight from the OS page cache,
    // without touching the buffer pool.
    StatusOr<const uint8_t*> span = pool->pager()->MappedSpan(page, page_size);
    if (span.ok()) {
      view.data_ = span.value();
      view.size_ = page_size;
      view.mapped_ = true;
      return StatusOr<PageView>(std::move(view));
    }
    // Fall through to the buffered path (e.g. span validation failed).
  }
  StatusOr<PageHandle> handle = pool->Fetch(page);
  if (!handle.ok()) return handle.status();
  view.pin_ = std::move(handle).value();
  view.data_ = view.pin_.data();
  view.size_ = page_size;
  return StatusOr<PageView>(std::move(view));
}

Status WritePageBytes(BufferPool* pool, PageId page, const uint8_t* data) {
  StatusOr<PageHandle> handle = pool->Fetch(page);
  if (!handle.ok()) return handle.status();
  std::memcpy(handle.value().data(), data, pool->pager()->page_size());
  handle.value().MarkDirty();
  return Status::Ok();
}

StatusOr<NodeStat> StatNodeRecord(BufferPool* pool, PageId page,
                                  ChecksumLedger* ledger) {
  StatusOr<NodeRecordV2> record = ReadNodeRecordV2(pool, page, ledger);
  if (!record.ok()) return record.status();
  NodeStat stat;
  stat.is_leaf = record.value().is_leaf();
  stat.entries = record.value().count();
  stat.record_bytes = kNodeHeaderBytesV2 + record.value().body_bytes();
  stat.record_pages = record.value().pages();
  return stat;
}

void PutKeywordSetV2(std::vector<uint8_t>* body, const KeywordSet& set) {
  const std::vector<TermId>& terms = set.terms();
  PutVarint(body, terms.size());
  PutDeltaU32s(body, terms.data(), terms.size());
}

bool GetKeywordSetV2(CheckedReader* reader, KeywordSet* out) {
  uint32_t count = 0;
  if (!reader->GetVarint32(&count)) return false;
  std::vector<TermId> terms;
  // A corrupt count can be huge; the per-term varints are at least one
  // byte each, so cap the reservation by what could possibly be present.
  terms.reserve(std::min<size_t>(count, reader->remaining()));
  if (!reader->GetDeltaU32s(count, &terms)) return false;
  *out = KeywordSet::FromSorted(std::move(terms));
  return true;
}

}  // namespace wsk
