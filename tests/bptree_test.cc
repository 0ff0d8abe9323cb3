// Tests for the disk-based B+-tree: bulk loading, incremental inserts
// with splits, point/range search and the ADB+ seek primitive —
// validated against std::multimap as the reference.

#include "index/bptree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
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
  auto tree = BPTree::BulkLoad(bm_.get(), file, KeyKind::kCode);
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
  auto tree = BPTree::BulkLoad(bm_.get(), file, KeyKind::kCode);
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
  auto tree = BPTree::BulkLoad(bm_.get(), file, KeyKind::kCode);
  EXPECT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BPTreeSingleTest, InsertsWithSplitsMatchMultimap) {
  auto tree = BPTree::CreateEmpty(bm_.get(), KeyKind::kCode);
  ASSERT_TRUE(tree.ok());
  Random rng(5);
  std::multimap<uint64_t, uint64_t> ref;
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.UniformRange(1, 4000);  // duplicates guaranteed
    ASSERT_TRUE(tree->Insert(bm_.get(), ElementRecord{key, 0, 0}).ok());
    ref.emplace(key, key);
  }
  EXPECT_EQ(tree->num_entries(), ref.size());
  EXPECT_GT(tree->tree_height(), 1);

  std::vector<uint64_t> got = RangeViaScanner(*tree, 0, UINT64_MAX);
  std::vector<uint64_t> expect;
  for (auto& [k, v] : ref) expect.push_back(k);
  EXPECT_EQ(got, expect);

  // Range queries over the duplicate-heavy key space.
  for (int q = 0; q < 30; ++q) {
    uint64_t lo = rng.UniformRange(0, 4000);
    uint64_t hi = lo + rng.Uniform(500);
    std::vector<uint64_t> want;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi; ++it) {
      want.push_back(it->first);
    }
    EXPECT_EQ(RangeViaScanner(*tree, lo, hi), want);
  }
}

TEST_F(BPTreeSingleTest, PointSearchFindsExistingAndRejectsMissing) {
  std::vector<uint64_t> codes;
  for (int i = 0; i < 1000; ++i) codes.push_back(3 * i + 1);
  HeapFile file = MakeFile(codes);
  auto tree = BPTree::BulkLoad(bm_.get(), file, KeyKind::kCode);
  ASSERT_TRUE(tree.ok());
  ElementRecord rec;
  EXPECT_TRUE(tree->PointSearch(bm_.get(), 301, &rec).ok());
  EXPECT_EQ(rec.code, 301u);
  EXPECT_EQ(tree->PointSearch(bm_.get(), 302, &rec).code(),
            StatusCode::kNotFound);
}

TEST_F(BPTreeSingleTest, SeekCeilFindsFirstKeyAtOrAfter) {
  std::vector<uint64_t> codes = {10, 20, 30, 40, 50};
  HeapFile file = MakeFile(codes);
  auto tree = BPTree::BulkLoad(bm_.get(), file, KeyKind::kCode);
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
  auto tree = BPTree::BulkLoad(bm_.get(), *file, KeyKind::kStart);
  ASSERT_TRUE(tree.ok());
  std::vector<uint64_t> got = RangeViaScanner(*tree, 0, UINT64_MAX);
  EXPECT_EQ(got.front(), 12u);  // Start 9 first
}

TEST_F(BPTreeSingleTest, DropFreesEveryPage) {
  std::vector<uint64_t> codes;
  for (int i = 0; i < 50000; ++i) codes.push_back(i + 1);
  HeapFile file = MakeFile(codes);
  uint64_t live_before = disk_->num_live_pages();
  auto tree = BPTree::BulkLoad(bm_.get(), file, KeyKind::kCode);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(disk_->num_live_pages(), live_before);
  ASSERT_TRUE(tree->Drop(bm_.get()).ok());
  EXPECT_EQ(disk_->num_live_pages(), live_before);
}

TEST_F(BPTreeSingleTest, BulkLoadWithFillFactorMakesDeeperTrees) {
  std::vector<uint64_t> codes;
  for (int i = 0; i < 20000; ++i) codes.push_back(i + 1);
  HeapFile file = MakeFile(codes);
  auto full = BPTree::BulkLoad(bm_.get(), file, KeyKind::kCode, 1.0);
  auto half = BPTree::BulkLoad(bm_.get(), file, KeyKind::kCode, 0.5);
  ASSERT_TRUE(full.ok() && half.ok());
  EXPECT_GE(half->num_pages(), full->num_pages() * 2 - 2);
  EXPECT_EQ(RangeViaScanner(*half, 100, 200), RangeViaScanner(*full, 100, 200));
}


TEST_F(BPTreeSingleTest, RemoveMatchesMultimapSemantics) {
  auto tree = BPTree::CreateEmpty(bm_.get(), KeyKind::kCode);
  ASSERT_TRUE(tree.ok());
  Random rng(77);
  std::multimap<uint64_t, ElementRecord> ref;
  std::vector<ElementRecord> inserted;
  for (int i = 0; i < 8000; ++i) {
    ElementRecord rec{rng.UniformRange(1, 900),
                      static_cast<uint32_t>(rng.Uniform(1000)), 0};
    ASSERT_TRUE(tree->Insert(bm_.get(), rec).ok());
    ref.emplace(rec.code, rec);
    inserted.push_back(rec);
  }
  // Delete half, randomly chosen.
  for (int i = 0; i < 4000; ++i) {
    size_t at = rng.Uniform(inserted.size());
    ElementRecord victim = inserted[at];
    inserted.erase(inserted.begin() + at);
    ASSERT_TRUE(tree->Remove(bm_.get(), victim).ok()) << i;
    auto range = ref.equal_range(victim.code);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == victim) {
        ref.erase(it);
        break;
      }
    }
  }
  EXPECT_EQ(tree->num_entries(), ref.size());

  std::vector<uint64_t> got = RangeViaScanner(*tree, 0, UINT64_MAX);
  std::vector<uint64_t> expect;
  for (auto& [k, v] : ref) expect.push_back(k);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);

  // Removing something absent is NotFound.
  ElementRecord ghost{5000, 1, 2};
  EXPECT_EQ(tree->Remove(bm_.get(), ghost).code(), StatusCode::kNotFound);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

TEST_F(BPTreeSingleTest, RemoveAcrossDuplicateRunSpanningLeaves) {
  auto tree = BPTree::CreateEmpty(bm_.get(), KeyKind::kCode);
  ASSERT_TRUE(tree.ok());
  // 500 duplicates of one key (spans multiple leaves) with distinct
  // payloads; remove a specific payload from the middle.
  for (uint32_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree->Insert(bm_.get(), ElementRecord{42, i, 0}).ok());
  }
  ASSERT_TRUE(tree->Remove(bm_.get(), ElementRecord{42, 377, 0}).ok());
  EXPECT_EQ(tree->num_entries(), 499u);
  BPTree::RangeScanner scan(bm_.get(), *tree, 42, 42);
  ElementRecord rec;
  std::set<uint32_t> tags;
  while (scan.Next(&rec)) tags.insert(rec.tag);
  EXPECT_TRUE(scan.status().ok()) << scan.status().ToString();
  EXPECT_EQ(tags.size(), 499u);
  EXPECT_EQ(tags.count(377), 0u);
}

}  // namespace
}  // namespace pbitree
