#include "index/node_codec.h"

#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "test_util.h"

namespace wsk {
namespace {

using testing::TempFile;

TEST(ByteCodecTest, WriterReaderRoundTrip) {
  std::vector<uint8_t> buf;
  ByteWriter writer(&buf);
  writer.PutU8(0xab);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x0123456789abcdefULL);
  writer.PutDouble(3.25);
  writer.PutRect(Rect{1, 2, 3, 4});
  const uint8_t blob[3] = {9, 8, 7};
  writer.PutBytes(blob, sizeof(blob));
  EXPECT_EQ(writer.size(), 1u + 4 + 8 + 8 + 32 + 3);

  ByteReader reader(buf.data(), buf.size());
  EXPECT_EQ(reader.GetU8(), 0xab);
  EXPECT_EQ(reader.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(reader.GetU64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(reader.GetDouble(), 3.25);
  EXPECT_EQ(reader.GetRect(), (Rect{1, 2, 3, 4}));
  const uint8_t* read_blob = reader.GetBytes(3);
  EXPECT_EQ(read_blob[0], 9);
  EXPECT_EQ(read_blob[2], 7);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteCodecTest, WriterAppendsToExistingBuffer) {
  std::vector<uint8_t> buf{1, 2, 3};
  ByteWriter writer(&buf);
  writer.PutU8(4);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[3], 4);
}

TEST(PageViewTest, WriteThenReadRoundTrip) {
  TempFile file("page_view_round_trip");
  auto pager = Pager::Create(file.path(), 128).value();
  BufferPool pool(pager.get(), 128 * 8);
  const PageId page = pager->AllocatePages(1);
  std::vector<uint8_t> data(128);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(WritePageBytes(&pool, page, data.data()).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.InvalidateAll().ok());

  StatusOr<PageView> view = PageView::Read(&pool, page);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view.value().mapped());
  ASSERT_EQ(view.value().size(), 128u);
  EXPECT_EQ(std::memcmp(view.value().data(), data.data(), data.size()), 0);
}

TEST(PageViewTest, BorrowsThePinnedFrame) {
  TempFile file("page_view_pin");
  auto pager = Pager::Create(file.path(), 128).value();
  BufferPool pool(pager.get(), 128 * 8);
  const PageId page = pager->AllocatePages(1);
  std::vector<uint8_t> data(128, 0x2a);
  ASSERT_TRUE(WritePageBytes(&pool, page, data.data()).ok());

  StatusOr<PageView> view = PageView::Read(&pool, page);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  // The span IS the buffer-pool frame, not a copy.
  PageHandle pinned = pool.Fetch(page).value();
  EXPECT_EQ(view.value().data(), pinned.data());
}

TEST(PageViewTest, ReadCostsOnePhysicalRead) {
  TempFile file("page_view_io");
  auto pager = Pager::Create(file.path(), 128).value();
  BufferPool pool(pager.get(), 128 * 8);
  const PageId page = pager->AllocatePages(1);
  std::vector<uint8_t> data(128, 0x5c);
  ASSERT_TRUE(WritePageBytes(&pool, page, data.data()).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.InvalidateAll().ok());
  pager->io_stats().Reset();
  ASSERT_TRUE(PageView::Read(&pool, page).ok());
  EXPECT_EQ(pager->io_stats().physical_reads(), 1u);
  // Cached second read: no physical I/O.
  ASSERT_TRUE(PageView::Read(&pool, page).ok());
  EXPECT_EQ(pager->io_stats().physical_reads(), 1u);
}

TEST(PageViewTest, MappedModeBorrowsTheMapping) {
  TempFile file("page_view_mapped");
  auto pager = Pager::Create(file.path(), 128).value();
  const PageId page = pager->AllocatePages(1);
  std::vector<uint8_t> data(128, 0x71);
  ASSERT_TRUE(pager->WritePage(page, data.data()).ok());
  ASSERT_TRUE(pager->EnableMappedReads().ok());
  BufferPool pool(pager.get(), 128 * 8);
  pager->io_stats().Reset();

  StatusOr<PageView> view = PageView::Read(&pool, page);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view.value().mapped());
  EXPECT_EQ(std::memcmp(view.value().data(), data.data(), data.size()), 0);
  EXPECT_EQ(pager->io_stats().physical_reads(), 0u);
}

TEST(PageViewTest, MoveKeepsSpanValid) {
  TempFile file("page_view_move");
  auto pager = Pager::Create(file.path(), 128).value();
  BufferPool pool(pager.get(), 128 * 8);
  const PageId page = pager->AllocatePages(1);
  std::vector<uint8_t> data(128, 0x3e);
  ASSERT_TRUE(WritePageBytes(&pool, page, data.data()).ok());

  PageView view = PageView::Read(&pool, page).value();
  const uint8_t* span = view.data();
  PageView moved = std::move(view);
  EXPECT_EQ(moved.data(), span);  // the pin moved with the view
  EXPECT_EQ(moved.data()[0], 0x3e);
}

TEST(PageViewTest, ReadErrorPropagates) {
  TempFile file("page_view_err");
  auto pager = Pager::Create(file.path(), 128).value();
  BufferPool pool(pager.get(), 128 * 8);
  const PageId page = pager->AllocatePages(1);
  pager->set_read_fault_hook(
      [](PageId) { return Status::IoError("injected"); });
  EXPECT_EQ(PageView::Read(&pool, page).status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace wsk
