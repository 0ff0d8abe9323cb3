// Tests for the persistence layer: catalog round trips within a
// process and across a real close/reopen of a file-backed database,
// HeapFile::Attach reconstruction, and error paths.

#include "storage/catalog.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "join/element_set.h"

namespace pbitree {
namespace {

/// Opens the database file at `path`, keeping it on close and
/// restoring the allocation frontier from its size.
StatusOr<DiskManager*> OpenDatabaseFile(const std::string& path) {
  PBITREE_ASSIGN_OR_RETURN(std::unique_ptr<IoBackend> backend,
                           FileIoBackend::Open(path, /*truncate=*/false,
                                               /*unlink_on_close=*/false));
  return DiskManager::OpenWithBackend(std::move(backend),
                                      /*restore_frontier=*/true);
}

ElementSet MakeSet(BufferManager* bm, const std::vector<Code>& codes,
                   int height) {
  auto b = ElementSetBuilder::Create(bm, PBiTreeSpec{height});
  EXPECT_TRUE(b.ok());
  for (Code c : codes) EXPECT_TRUE(b->AddCode(c).ok());
  auto built = b->Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.value_or(ElementSet{});
}

std::vector<Code> ReadCodes(BufferManager* bm, const ElementSet& set) {
  std::vector<Code> out;
  HeapFile::Scanner scan(bm, set.file);
  ElementRecord rec;
  while (scan.NextElement(&rec)) out.push_back(rec.code);
  EXPECT_TRUE(scan.status().ok()) << scan.status().ToString();
  return out;
}

TEST(CatalogTest, PutGetRoundTripInMemory) {
  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 32);
  auto catalog = Catalog::Load(&bm);
  ASSERT_TRUE(catalog.ok());

  ElementSet set = MakeSet(&bm, {4, 9, 12, 17}, 8);
  set.sorted_by_start = false;
  ASSERT_TRUE(catalog->Put("articles", set).ok());
  EXPECT_TRUE(catalog->Contains("articles"));

  auto back = catalog->Get(&bm, "articles");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_records(), 4u);
  EXPECT_EQ(back->spec.height, 8);
  EXPECT_EQ(back->height_mask, set.height_mask);
  EXPECT_EQ(back->min_start, set.min_start);
  EXPECT_EQ(ReadCodes(&bm, *back), (std::vector<Code>{4, 9, 12, 17}));
}

TEST(CatalogTest, SurvivesProcessRestart) {
  std::string path = TempFilePath("catalog_test");
  std::vector<Code> codes;
  for (Code c = 1; c <= 600; ++c) codes.push_back(c);  // spans 3 pages

  {
    auto opened = OpenDatabaseFile(path);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<DiskManager> disk(*opened);
    BufferManager bm(disk.get(), 32);
    auto catalog = Catalog::Load(&bm);
    ASSERT_TRUE(catalog.ok());
    EXPECT_EQ(catalog->size(), 0u);

    ElementSet set = MakeSet(&bm, codes, 12);
    ASSERT_TRUE(catalog->Put("everything", set).ok());
    ASSERT_TRUE(catalog->Save(&bm).ok());
  }  // destructors: pool gone, file kept

  {
    auto opened = OpenDatabaseFile(path);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<DiskManager> disk(*opened);
    BufferManager bm(disk.get(), 32);
    auto catalog = Catalog::Load(&bm);
    ASSERT_TRUE(catalog.ok());
    ASSERT_EQ(catalog->size(), 1u);

    auto back = catalog->Get(&bm, "everything");
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(ReadCodes(&bm, *back), codes);

    // The restored frontier must keep new allocations off live pages.
    ElementSet more = MakeSet(&bm, {7, 11}, 12);
    ASSERT_TRUE(catalog->Put("more", more).ok());
    ASSERT_TRUE(catalog->Save(&bm).ok());
    auto again = catalog->Get(&bm, "everything");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(ReadCodes(&bm, *again), codes);
  }
  RemoveFileIfExists(path);
}

TEST(CatalogTest, ValidationAndLimits) {
  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 32);
  auto catalog = Catalog::Load(&bm);
  ASSERT_TRUE(catalog.ok());

  ElementSet set = MakeSet(&bm, {4}, 8);
  EXPECT_EQ(catalog->Put("", set).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog->Put(std::string(40, 'x'), set).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog->Get(&bm, "missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog->Remove("missing").code(), StatusCode::kNotFound);

  for (size_t i = 0; i < Catalog::kMaxEntries; ++i) {
    ASSERT_TRUE(catalog->Put("set" + std::to_string(i), set).ok());
  }
  EXPECT_EQ(catalog->Put("one_too_many", set).code(),
            StatusCode::kResourceExhausted);
  // Replacing an existing name is fine even when full.
  EXPECT_TRUE(catalog->Put("set0", set).ok());
  EXPECT_TRUE(catalog->Remove("set1").ok());
  EXPECT_TRUE(catalog->Put("one_too_many", set).ok());
}

TEST(HeapFileAttachTest, RebuildsCountsAndSupportsAppend) {
  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 32);
  auto file = HeapFile::Create(&bm);
  ASSERT_TRUE(file.ok());
  {
    HeapFile::Appender app(&bm, &file.value());
    for (uint64_t i = 0; i < 700; ++i) {
      ASSERT_TRUE(app.AppendElement(ElementRecord{i + 1, 0, 0}).ok());
    }
  }
  auto attached = HeapFile::Attach(&bm, file->first_page());
  ASSERT_TRUE(attached.ok());
  EXPECT_EQ(attached->num_records(), 700u);
  EXPECT_EQ(attached->num_pages(), file->num_pages());

  // The attached handle is fully functional: append and drop.
  ElementRecord extra{9999, 0, 0};
  {
    HeapFile::Appender app(&bm, &attached.value());
    ASSERT_TRUE(app.AppendElement(extra).ok());
    ASSERT_TRUE(app.Finish().ok());
  }
  EXPECT_EQ(attached->num_records(), 701u);
  uint64_t live = disk->num_live_pages();
  ASSERT_TRUE(attached->Drop(&bm).ok());
  EXPECT_EQ(disk->num_live_pages(), live - file->num_pages());
}

TEST(HeapFileAttachTest, InvalidFirstPageRejected) {
  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 8);
  auto attached = HeapFile::Attach(&bm, kInvalidPageId);
  EXPECT_EQ(attached.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pbitree
