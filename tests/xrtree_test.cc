// Tests for the XR-tree and the XR-stack join: stab-path completeness
// against brute force, cursor semantics, join correctness on random and
// clustered data, and the skipping behaviour the index exists for.

#include "index/xrtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "join/xr_stack.h"
#include "sort/external_sort.h"

namespace pbitree {
namespace {

constexpr int kH = 18;

class XRTreeTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 64);
  }

  std::vector<Code> MakeCodes(int n, uint64_t seed, int max_h = kH - 1) {
    Random rng(seed);
    PBiTreeSpec spec{kH};
    std::unordered_set<Code> seen;
    std::vector<Code> codes;
    while (static_cast<int>(codes.size()) < n) {
      Code c = rng.UniformRange(1, spec.MaxCode());
      if (HeightOf(c) <= max_h && seen.insert(c).second) codes.push_back(c);
    }
    return codes;
  }

  /// Start-order-sorted heap file of the codes.
  HeapFile MakeSortedFile(std::vector<Code> codes) {
    std::sort(codes.begin(), codes.end(), [](Code a, Code b) {
      uint64_t sa = StartOf(a), sb = StartOf(b);
      if (sa != sb) return sa < sb;
      return HeightOf(a) > HeightOf(b);
    });
    auto file = HeapFile::Create(bm_.get());
    EXPECT_TRUE(file.ok());
    HeapFile::Appender app(bm_.get(), &file.value());
    for (Code c : codes) {
      EXPECT_TRUE(app.AppendElement(ElementRecord{c, 0, 0}).ok());
    }
    EXPECT_TRUE(app.Finish().ok());
    return *file;
  }

  ElementSet MakeSet(const std::vector<Code>& codes) {
    auto b = ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{kH});
    EXPECT_TRUE(b.ok());
    for (Code c : codes) EXPECT_TRUE(b->AddCode(c).ok());
    auto built = b->Build();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.value_or(ElementSet{});
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_P(XRTreeTest, StabPathMatchesBruteForce) {
  const int n = GetParam();
  std::vector<Code> codes = MakeCodes(n, 21);
  HeapFile file = MakeSortedFile(codes);
  auto tree = XRTree::BulkLoad(bm_.get(), file);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->num_entries(), static_cast<uint64_t>(n));

  Random rng(22);
  PBiTreeSpec spec{kH};
  for (int q = 0; q < 100; ++q) {
    uint64_t point = rng.UniformRange(1, spec.MaxCode());
    std::vector<Code> expect;
    for (Code c : codes) {
      // Leaves (degenerate regions) are deliberately not stab-indexed;
      // they can never be ancestors.
      if (HeightOf(c) > 0 && StartOf(c) <= point && point <= EndOf(c)) {
        expect.push_back(c);
      }
    }
    std::sort(expect.begin(), expect.end(), [](Code a, Code b) {
      uint64_t sa = StartOf(a), sb = StartOf(b);
      if (sa != sb) return sa < sb;
      return HeightOf(a) > HeightOf(b);
    });
    std::vector<Code> got;
    ASSERT_TRUE(tree->StabPath(bm_.get(), point,
                               [&](const ElementRecord& rec) {
                                 got.push_back(rec.code);
                               })
                    .ok());
    // StabPath may also return degenerate (leaf) regions when they
    // equal the probe; drop them for comparison.
    std::erase_if(got, [](Code c) { return HeightOf(c) == 0; });
    EXPECT_EQ(got, expect) << "point=" << point;
  }
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, XRTreeTest,
                         ::testing::Values(0, 1, 255, 5000, 60000));

using XRTreeSingleTest = XRTreeTest;

TEST_F(XRTreeSingleTest, CursorScansAndSeeks) {
  std::vector<Code> codes = MakeCodes(3000, 23);
  HeapFile file = MakeSortedFile(codes);
  auto tree = XRTree::BulkLoad(bm_.get(), file);
  ASSERT_TRUE(tree.ok());

  XRTree::Cursor cur(bm_.get(), *tree);
  ASSERT_TRUE(cur.SeekTo(0).ok());
  uint64_t count = 0;
  uint64_t prev = 0;
  while (cur.live()) {
    EXPECT_GE(StartOf(cur.rec().code), prev);
    prev = StartOf(cur.rec().code);
    ++count;
    ASSERT_TRUE(cur.Advance().ok());
  }
  EXPECT_EQ(count, codes.size());

  // Seek to the median start.
  std::vector<uint64_t> starts;
  for (Code c : codes) starts.push_back(StartOf(c));
  std::sort(starts.begin(), starts.end());
  uint64_t median = starts[starts.size() / 2];
  ASSERT_TRUE(cur.SeekTo(median).ok());
  ASSERT_TRUE(cur.live());
  EXPECT_GE(StartOf(cur.rec().code), median);
  EXPECT_EQ(bm_->PinnedFrames(), 1u);  // the cursor's leaf
  cur.Close();
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

TEST_F(XRTreeSingleTest, RejectsUnsortedInput) {
  auto file = HeapFile::Create(bm_.get());
  ASSERT_TRUE(file.ok());
  ElementRecord r1{100, 0, 0}, r2{3, 0, 0};
  {
    HeapFile::Appender app(bm_.get(), &file.value());
    ASSERT_TRUE(app.AppendElement(r1).ok());
    ASSERT_TRUE(app.AppendElement(r2).ok());
    ASSERT_TRUE(app.Finish().ok());
  }
  auto tree = XRTree::BulkLoad(bm_.get(), *file);
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(XRTreeSingleTest, DropFreesEverythingIncludingStabChains) {
  std::vector<Code> codes = MakeCodes(50000, 24);
  HeapFile file = MakeSortedFile(codes);
  uint64_t live_before = disk_->num_live_pages();
  auto tree = XRTree::BulkLoad(bm_.get(), file);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(tree->num_stabbed(), 0u);
  ASSERT_TRUE(tree->Drop(bm_.get()).ok());
  EXPECT_EQ(disk_->num_live_pages(), live_before);
}

class XrStackJoinTest : public XRTreeTest {
 protected:
  void CheckJoin(const std::vector<Code>& a_codes,
                 const std::vector<Code>& d_codes, uint64_t* probes = nullptr) {
    ElementSet a = MakeSet(a_codes);
    ElementSet d = MakeSet(d_codes);
    HeapFile a_sorted = MakeSortedFile(a_codes);
    HeapFile d_sorted = MakeSortedFile(d_codes);
    auto a_tree = XRTree::BulkLoad(bm_.get(), a_sorted);
    auto d_tree = XRTree::BulkLoad(bm_.get(), d_sorted);
    ASSERT_TRUE(a_tree.ok() && d_tree.ok());

    VectorSink collected;
    VerifyingSink sink(&collected);
    JoinContext ctx(bm_.get(), 16);
    ASSERT_TRUE(XrStackJoin(&ctx, a, d, *a_tree, *d_tree, &sink).ok());
    collected.Sort();

    std::vector<ResultPair> expect;
    for (Code x : a_codes) {
      for (Code y : d_codes) {
        if (IsAncestor(x, y)) expect.push_back({x, y});
      }
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(collected.pairs(), expect);
    if (probes != nullptr) *probes = ctx.stats.index_probes;
    EXPECT_EQ(bm_->PinnedFrames(), 0u);
  }
};

TEST_F(XrStackJoinTest, RandomSetsMatchBruteForce) {
  Random rng(25);
  CheckJoin(MakeCodes(700, 26, kH - 2), MakeCodes(1100, 27, 9));
}

TEST_F(XrStackJoinTest, SelfJoin) {
  std::vector<Code> codes = MakeCodes(800, 28);
  CheckJoin(codes, codes);
}

TEST_F(XrStackJoinTest, EmptyAndDisjointInputs) {
  CheckJoin({}, {5, 9});
  CheckJoin({5, 9}, {});
  // Disjoint halves: descendant skips fire, result is empty.
  PBiTreeSpec spec{kH};
  Code left = spec.RootCode() / 2, right = spec.RootCode() + spec.RootCode() / 2;
  CodeInterval li = SubtreeInterval(left), ri = SubtreeInterval(right);
  std::vector<Code> a, d;
  Random rng(29);
  for (int i = 0; i < 300; ++i) {
    a.push_back(li.lo + rng.Uniform(li.hi - li.lo + 1));
    d.push_back(ri.lo + rng.Uniform(ri.hi - ri.lo + 1));
  }
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(d.begin(), d.end());
  d.erase(std::unique(d.begin(), d.end()), d.end());
  uint64_t probes = 0;
  CheckJoin(a, d, &probes);
  EXPECT_GT(probes, 0u);  // skipping actually happened
}

TEST_F(XrStackJoinTest, ClusteredDataSkips) {
  // Ancestors in a few tight clusters, descendants spread everywhere:
  // the teleport (stab rebuild) must keep the join correct while the
  // cursor leaps over the gaps.
  Random rng(30);
  PBiTreeSpec spec{kH};
  std::unordered_set<Code> seen;
  std::vector<Code> a, d;
  for (int cl = 0; cl < 4; ++cl) {
    Code root = CodeOfTopDown(cl * 3 + 1, 4, spec);
    CodeInterval iv = SubtreeInterval(root);
    int added = 0;
    while (added < 120) {
      Code c = iv.lo + rng.Uniform(iv.hi - iv.lo + 1);
      if (HeightOf(c) >= 2 && HeightOf(c) <= 10 && seen.insert(c).second) {
        a.push_back(c);
        ++added;
      }
    }
  }
  while (d.size() < 2000) {
    Code c = rng.UniformRange(1, spec.MaxCode());
    if (HeightOf(c) < 2 && seen.insert(c).second) d.push_back(c);
  }
  uint64_t probes = 0;
  CheckJoin(a, d, &probes);
  EXPECT_GT(probes, 0u);
}

}  // namespace
}  // namespace pbitree
