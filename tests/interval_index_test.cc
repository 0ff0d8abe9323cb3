// Tests for the disk interval index: stabbing queries validated against
// a brute-force scan over random PBiTree element sets.

#include "index/interval_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "sort/external_sort.h"
#include "storage/heap_file.h"

namespace pbitree {
namespace {

class IntervalIndexTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 64);
  }

  /// Random unique codes in a height-20 PBiTree, materialised in Start
  /// order (bulk-load requirement).
  std::vector<Code> MakeCodes(int n, uint64_t seed) {
    Random rng(seed);
    PBiTreeSpec spec{20};
    std::unordered_set<Code> seen;
    std::vector<Code> codes;
    while (static_cast<int>(codes.size()) < n) {
      Code c = rng.UniformRange(1, spec.MaxCode());
      if (seen.insert(c).second) codes.push_back(c);
    }
    std::sort(codes.begin(), codes.end(), [](Code a, Code b) {
      return StartOf(a) < StartOf(b);
    });
    return codes;
  }

  HeapFile MakeFile(const std::vector<Code>& codes) {
    auto file = HeapFile::Create(bm_.get());
    EXPECT_TRUE(file.ok());
    HeapFile::Appender app(bm_.get(), &file.value());
    for (Code c : codes) {
      EXPECT_TRUE(app.AppendElement(ElementRecord{c, 0, 0}).ok());
    }
    EXPECT_TRUE(app.Finish().ok());
    return *file;
  }

  /// Bulk loads from `file`, which is already in Start order.
  StatusOr<IntervalIndex> BulkLoad(const HeapFile& file) {
    SortedStream sorted = SortedStream::Scan(bm_.get(), file);
    return IntervalIndex::BulkLoad(bm_.get(), &sorted);
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_P(IntervalIndexTest, StabMatchesBruteForce) {
  const int n = GetParam();
  std::vector<Code> codes = MakeCodes(n, 17);
  HeapFile file = MakeFile(codes);
  auto index = BulkLoad(file);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->num_entries(), static_cast<uint64_t>(n));

  Random rng(18);
  PBiTreeSpec spec{20};
  for (int q = 0; q < 200; ++q) {
    uint64_t point = rng.UniformRange(1, spec.MaxCode());
    std::vector<Code> expect;
    for (Code c : codes) {
      if (StartOf(c) <= point && point <= EndOf(c)) expect.push_back(c);
    }
    std::sort(expect.begin(), expect.end());

    std::vector<Code> got;
    ASSERT_TRUE(index
                    ->Stab(bm_.get(), point,
                           [&](const ElementRecord& rec) {
                             got.push_back(rec.code);
                           })
                    .ok());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << "point=" << point;
  }
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, IntervalIndexTest,
                         ::testing::Values(0, 1, 255, 256, 4000, 50000));

using IntervalIndexSingleTest = IntervalIndexTest;

TEST_F(IntervalIndexSingleTest, RejectsUnsortedInput) {
  // Codes with decreasing Starts.
  auto file = HeapFile::Create(bm_.get());
  ASSERT_TRUE(file.ok());
  ElementRecord r1{100, 0, 0}, r2{3, 0, 0};
  {
    HeapFile::Appender app(bm_.get(), &file.value());
    ASSERT_TRUE(app.AppendElement(r1).ok());
    ASSERT_TRUE(app.AppendElement(r2).ok());
    ASSERT_TRUE(app.Finish().ok());
  }
  auto index = BulkLoad(*file);
  EXPECT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IntervalIndexSingleTest, NestedChainAllStabbed) {
  // A full root-to-leaf chain: stabbing at the leaf must return the
  // whole chain — the worst case for ancestor lookups.
  PBiTreeSpec spec{30};
  std::vector<Code> chain;
  Code leaf = 12345 | 1;  // odd => height 0
  for (int h = 0; h < spec.height; ++h) chain.push_back(AncestorAtHeight(leaf, h));
  std::sort(chain.begin(), chain.end(),
            [](Code a, Code b) { return StartOf(a) < StartOf(b); });
  HeapFile file = MakeFile(chain);
  auto index = BulkLoad(file);
  ASSERT_TRUE(index.ok());
  size_t hits = 0;
  ASSERT_TRUE(
      index->Stab(bm_.get(), leaf, [&](const ElementRecord&) { ++hits; }).ok());
  EXPECT_EQ(hits, chain.size());
}

TEST_F(IntervalIndexSingleTest, DropFreesEveryPage) {
  std::vector<Code> codes = MakeCodes(30000, 3);
  HeapFile file = MakeFile(codes);
  uint64_t live_before = disk_->num_live_pages();
  auto index = BulkLoad(file);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Drop(bm_.get()).ok());
  EXPECT_EQ(disk_->num_live_pages(), live_before);
}

}  // namespace
}  // namespace pbitree
