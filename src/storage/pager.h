// Fixed-size-page file storage.
//
// Pager owns one file divided into pages of `page_size` bytes (4 KiB by
// default, matching the paper's setup). Pages are append-allocated;
// AllocatePages(n) hands out n *consecutive* page ids, which the tree node
// records rely on when they span several pages. All physical
// reads and writes are counted in IoStats.
#ifndef WSK_STORAGE_PAGER_H_
#define WSK_STORAGE_PAGER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "storage/io_stats.h"

namespace wsk {

using PageId = uint32_t;

inline constexpr PageId kInvalidPageId = 0xffffffffu;
inline constexpr uint32_t kDefaultPageSize = 4096;

// Thread-safe paged file. Create() truncates/creates the backing file; Open()
// re-opens an existing one (page count is inferred from the file size).
class Pager {
 public:
  ~Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  static StatusOr<std::unique_ptr<Pager>> Create(const std::string& path,
                                                 uint32_t page_size =
                                                     kDefaultPageSize);
  static StatusOr<std::unique_ptr<Pager>> Open(const std::string& path,
                                               uint32_t page_size =
                                                   kDefaultPageSize);

  // Reserves `count` fresh consecutive pages and returns the first id. The
  // pages hold unspecified bytes until written.
  PageId AllocatePages(uint32_t count);

  // Reads/writes exactly one page. `buffer` must hold page_size() bytes.
  Status ReadPage(PageId id, uint8_t* buffer);
  Status WritePage(PageId id, const uint8_t* buffer);

  // Switches the pager into mapped read mode: the file is extended to
  // num_pages() * page_size() bytes (allocated-but-unwritten tail pages
  // read as zeros, matching ReadPage) and mapped read-only, with madvise
  // hints for random node access. After this succeeds, MappedSpan() serves
  // borrowed zero-copy views straight from the OS page cache and WritePage
  // is rejected — the file is frozen. Fails with FailedPrecondition when
  // the file is empty or the platform has no mmap; callers fall back to the
  // buffered pread path (ReadPage through the buffer pool), which stays
  // fully supported.
  Status EnableMappedReads();

  // True once EnableMappedReads() succeeded.
  bool mapped() const {
    return map_.load(std::memory_order_acquire) != nullptr;
  }

  // A borrowed pointer to `length` contiguous bytes starting at page
  // `first` of the mapping, valid for the pager's lifetime. Counts one
  // mapped read per page spanned when `record` is true (a header peek
  // passes false so a node read is counted exactly once). Fails with
  // FailedPrecondition when not mapped, OutOfRange past the mapping.
  StatusOr<const uint8_t*> MappedSpan(PageId first, uint64_t length,
                                      bool record = true);

  uint32_t page_size() const { return page_size_; }
  PageId num_pages() const;

  IoStats& io_stats() { return io_stats_; }
  const IoStats& io_stats() const { return io_stats_; }

  // Test hook: when set, every physical read first consults the hook and
  // fails with the returned non-OK status (fault injection).
  void set_read_fault_hook(std::function<Status(PageId)> hook) {
    std::lock_guard<std::mutex> lock(mu_);
    read_fault_hook_ = std::move(hook);
  }

 private:
  Pager(std::FILE* file, uint32_t page_size, PageId num_pages);

  mutable std::mutex mu_;
  std::FILE* file_;
  const uint32_t page_size_;
  PageId num_pages_;
  std::function<Status(PageId)> read_fault_hook_;
  IoStats io_stats_;
  // Read-only mapping; set once under mu_ (release) and read lock-free
  // (acquire) on the query hot path. map_bytes_ is published before map_.
  std::atomic<const uint8_t*> map_{nullptr};
  uint64_t map_bytes_ = 0;
};

}  // namespace wsk

#endif  // WSK_STORAGE_PAGER_H_
