// Tests for the disk-based B+-tree: bulk loading, range search and the
// ADB+ seek primitive.

#include "index/bptree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/random.h"
#include "storage/heap_file.h"

namespace pbitree {
namespace {

class BPTreeTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 64);
  }

  /// Builds a heap file of records with codes from `codes` (codes are
  /// also the kCode keys).
  HeapFile MakeFile(const std::vector<uint64_t>& codes) {
    auto file = HeapFile::Create(bm_.get());
    EXPECT_TRUE(file.ok());
    HeapFile::Appender app(bm_.get(), &file.value());
    for (uint64_t c : codes) {
      EXPECT_TRUE(app.AppendElement(ElementRecord{c, 0, 0}).ok());
    }
    EXPECT_TRUE(app.Finish().ok());
    return *file;
  }

  /// Bulk loads from `file`, which is already in key order.
  StatusOr<BPTree> BulkLoad(const HeapFile& file, KeyKind kind) {
    SortedStream sorted = SortedStream::Scan(bm_.get(), file);
    return BPTree::BulkLoad(bm_.get(), &sorted, kind);
  }

  std::vector<uint64_t> RangeViaScanner(const BPTree& tree, uint64_t lo,
                                        uint64_t hi) {
    std::vector<uint64_t> out;
    BPTree::RangeScanner scan(bm_.get(), tree, lo, hi);
    ElementRecord rec;
    Status st;
    while (scan.Next(&rec, &st)) out.push_back(rec.code);
    EXPECT_TRUE(st.ok());
    return out;
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_P(BPTreeTest, BulkLoadThenFullScanReturnsAllKeysSorted) {
  const int n = GetParam();
  std::vector<uint64_t> codes;
  for (int i = 0; i < n; ++i) codes.push_back(2 * i + 1);
  HeapFile file = MakeFile(codes);
  auto tree = BulkLoad(file, KeyKind::kCode);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->num_entries(), static_cast<uint64_t>(n));

  std::vector<uint64_t> got = RangeViaScanner(*tree, 0, UINT64_MAX);
  EXPECT_EQ(got, codes);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

TEST_P(BPTreeTest, RangeScanMatchesReference) {
  const int n = GetParam();
  Random rng(99);
  std::vector<uint64_t> codes;
  for (int i = 0; i < n; ++i) codes.push_back(rng.UniformRange(1, 1 << 20));
  std::sort(codes.begin(), codes.end());
  HeapFile file = MakeFile(codes);
  auto tree = BulkLoad(file, KeyKind::kCode);
  ASSERT_TRUE(tree.ok());

  for (int q = 0; q < 50; ++q) {
    uint64_t lo = rng.UniformRange(0, 1 << 20);
    uint64_t hi = lo + rng.Uniform(1 << 16);
    std::vector<uint64_t> expect;
    for (uint64_t c : codes) {
      if (c >= lo && c <= hi) expect.push_back(c);
    }
    EXPECT_EQ(RangeViaScanner(*tree, lo, hi), expect) << "lo=" << lo;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BPTreeTest,
                         ::testing::Values(0, 1, 169, 170, 171, 5000, 60000));

using BPTreeSingleTest = BPTreeTest;

TEST_F(BPTreeSingleTest, BulkLoadRejectsUnsortedInput) {
  HeapFile file = MakeFile({5, 3, 9});
  auto tree = BulkLoad(file, KeyKind::kCode);
  EXPECT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BPTreeSingleTest, SeekCeilFindsFirstKeyAtOrAfter) {
  std::vector<uint64_t> codes = {10, 20, 30, 40, 50};
  HeapFile file = MakeFile(codes);
  auto tree = BulkLoad(file, KeyKind::kCode);
  ASSERT_TRUE(tree.ok());
  ElementRecord rec;
  auto r = tree->SeekCeil(bm_.get(), 25, &rec);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  EXPECT_EQ(rec.code, 30u);
  r = tree->SeekCeil(bm_.get(), 50, &rec);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  EXPECT_EQ(rec.code, 50u);
  r = tree->SeekCeil(bm_.get(), 51, &rec);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST_F(BPTreeSingleTest, StartKeyedTreeOrdersByRegionStart) {
  // Codes 18 (Start 17) and 24 (Start 17? no: 24 has h=3, Start 17).
  // Use codes whose Starts differ from code order: 17 (Start 17),
  // 18 (Start 17), 12 (Start 9).
  std::vector<ElementRecord> recs = {{12, 0, 0}, {17, 0, 0}, {18, 0, 0}};
  std::sort(recs.begin(), recs.end(),
            [](const ElementRecord& a, const ElementRecord& b) {
              return StartOf(a.code) < StartOf(b.code);
            });
  auto file = HeapFile::Create(bm_.get());
  ASSERT_TRUE(file.ok());
  {
    HeapFile::Appender app(bm_.get(), &file.value());
    ASSERT_TRUE(app.AppendElements(recs).ok());
    ASSERT_TRUE(app.Finish().ok());
  }
  auto tree = BulkLoad(*file, KeyKind::kStart);
  ASSERT_TRUE(tree.ok());
  std::vector<uint64_t> got = RangeViaScanner(*tree, 0, UINT64_MAX);
  EXPECT_EQ(got.front(), 12u);  // Start 9 first
}

TEST_F(BPTreeSingleTest, DropFreesEveryPage) {
  std::vector<uint64_t> codes;
  for (int i = 0; i < 50000; ++i) codes.push_back(i + 1);
  HeapFile file = MakeFile(codes);
  uint64_t live_before = disk_->num_live_pages();
  auto tree = BulkLoad(file, KeyKind::kCode);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(disk_->num_live_pages(), live_before);
  ASSERT_TRUE(tree->Drop(bm_.get()).ok());
  EXPECT_EQ(disk_->num_live_pages(), live_before);
}

TEST_F(BPTreeSingleTest, DuplicateRunSpanningLeavesScansFromItsFirstLeaf) {
  // 500 duplicates of one key span three full leaves; a range scan on
  // that key must enter the run at its leftmost leaf and walk it all.
  auto file = HeapFile::Create(bm_.get());
  ASSERT_TRUE(file.ok());
  {
    HeapFile::Appender app(bm_.get(), &file.value());
    ASSERT_TRUE(app.AppendElement(ElementRecord{7, 0, 0}).ok());
    for (uint32_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(app.AppendElement(ElementRecord{42, i, 0}).ok());
    }
    ASSERT_TRUE(app.AppendElement(ElementRecord{99, 0, 0}).ok());
    ASSERT_TRUE(app.Finish().ok());
  }
  auto tree = BulkLoad(*file, KeyKind::kCode);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(tree->tree_height(), 1);
  BPTree::RangeScanner scan(bm_.get(), *tree, 42, 42);
  ElementRecord rec;
  std::set<uint32_t> tags;
  while (scan.Next(&rec)) tags.insert(rec.tag);
  EXPECT_TRUE(scan.status().ok()) << scan.status().ToString();
  EXPECT_EQ(tags.size(), 500u);
  scan.Close();
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

}  // namespace
}  // namespace pbitree
