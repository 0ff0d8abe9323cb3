// Focused tests for VPJ internals: purging, merging, ancestor
// replication, recursion depth, and the Memory-Containment-Join
// branches (Algorithm 5/6 of the paper).

#include "join/vpj.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "join/result_sink.h"

namespace pbitree {
namespace {

constexpr int kH = 18;

class VpjTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 256);
  }

  ElementSet Make(const std::vector<Code>& codes) {
    auto b = ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{kH});
    EXPECT_TRUE(b.ok());
    for (Code c : codes) EXPECT_TRUE(b->AddCode(c).ok());
    auto built = b->Build();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.value_or(ElementSet{});
  }

  std::vector<ResultPair> Expected(const std::vector<Code>& a,
                                   const std::vector<Code>& d) {
    std::vector<ResultPair> out;
    for (Code x : a) {
      for (Code y : d) {
        if (IsAncestor(x, y)) out.push_back({x, y});
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Runs VPJ with the given options and memory budget; returns stats.
  JoinStats RunAndCheck(const std::vector<Code>& a_codes,
                        const std::vector<Code>& d_codes, size_t work_pages,
                        const VpjOptions& opts) {
    ElementSet a = Make(a_codes);
    ElementSet d = Make(d_codes);
    VectorSink collected;
    VerifyingSink sink(&collected);
    JoinContext ctx(bm_.get(), work_pages);
    Status st = Vpj(&ctx, a, d, &sink, opts);
    EXPECT_TRUE(st.ok()) << st.ToString();
    collected.Sort();
    EXPECT_EQ(collected.pairs(), Expected(a_codes, d_codes));
    EXPECT_EQ(bm_->PinnedFrames(), 0u);
    EXPECT_TRUE(a.file.Drop(bm_.get()).ok());
    EXPECT_TRUE(d.file.Drop(bm_.get()).ok());
    return ctx.stats;
  }

  std::vector<Code> RandomCodes(Random* rng, int n, int max_height) {
    std::unordered_set<Code> seen;
    std::vector<Code> out;
    PBiTreeSpec spec{kH};
    while (static_cast<int>(out.size()) < n) {
      Code c = rng->UniformRange(1, spec.MaxCode());
      if (HeightOf(c) <= max_height && seen.insert(c).second) out.push_back(c);
    }
    return out;
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_F(VpjTest, SmallInputsShortCircuitToMemoryJoin) {
  Random rng(1);
  JoinStats stats =
      RunAndCheck(RandomCodes(&rng, 50, 12), RandomCodes(&rng, 100, 8), 64, {});
  EXPECT_EQ(stats.partitions, 0u);  // everything fit in memory
}

TEST_F(VpjTest, LargeInputsActuallyPartition) {
  Random rng(2);
  // ~16 pages per side with a budget of 8 forces at least one cut.
  std::vector<Code> a = RandomCodes(&rng, 4000, 12);
  std::vector<Code> d = RandomCodes(&rng, 4000, 8);
  JoinStats stats = RunAndCheck(a, d, 8, {});
  EXPECT_GT(stats.partitions, 0u);
}

TEST_F(VpjTest, AncestorsAboveTheCutAreReplicated) {
  Random rng(3);
  // Ancestors near the root have subtrees spanning many partitions.
  std::vector<Code> a;
  PBiTreeSpec spec{kH};
  a.push_back(spec.RootCode());
  for (Code c : RandomCodes(&rng, 3000, 14)) a.push_back(c);
  std::vector<Code> d = RandomCodes(&rng, 4000, 6);
  JoinStats stats = RunAndCheck(a, d, 8, {});
  EXPECT_GT(stats.partitions, 0u);
  EXPECT_GT(stats.replicated_nodes, 0u);
}

TEST_F(VpjTest, PurgingDropsOneSidedPartitions) {
  Random rng(4);
  // All descendants in the left half of the code space, ancestors
  // spread everywhere: right-half partitions have empty D sides.
  PBiTreeSpec spec{kH};
  std::vector<Code> a = RandomCodes(&rng, 4000, 12);
  std::vector<Code> d;
  CodeInterval left = SubtreeInterval(spec.RootCode() / 2);
  std::unordered_set<Code> seen;
  while (d.size() < 4000) {
    Code c = left.lo + rng.Uniform(left.hi - left.lo + 1);
    if (HeightOf(c) <= 8 && seen.insert(c).second) d.push_back(c);
  }
  JoinStats stats = RunAndCheck(a, d, 8, {});
  EXPECT_GT(stats.purged_partitions, 0u);
}

TEST_F(VpjTest, MergingCoalescesSmallPartitions) {
  // Skewed data: most records in two dense clusters, a sprinkle spread
  // over the rest of the code space. The sparse partitions are tiny
  // and adjacent, so the merging refinement coalesces them.
  Random rng(5);
  PBiTreeSpec spec{kH};
  std::unordered_set<Code> seen;
  std::vector<Code> a, d;
  CodeInterval c1 = SubtreeInterval(CodeOfTopDown(1, 3, spec));
  CodeInterval c2 = SubtreeInterval(CodeOfTopDown(6, 3, spec));
  auto sample = [&](const CodeInterval& iv, int max_h) {
    while (true) {
      Code c = iv.lo + rng.Uniform(iv.hi - iv.lo + 1);
      if (HeightOf(c) <= max_h && seen.insert(c).second) return c;
    }
  };
  CodeInterval all{1, spec.MaxCode()};
  for (int i = 0; i < 12000; ++i) {
    a.push_back(sample(i % 10 == 0 ? all : (i % 2 ? c1 : c2), 12));
    d.push_back(sample(i % 10 == 0 ? all : (i % 2 ? c1 : c2), 6));
  }
  VpjOptions with_merge;
  with_merge.enable_merging = true;
  JoinStats merged = RunAndCheck(a, d, 16, with_merge);
  VpjOptions no_merge;
  no_merge.enable_merging = false;
  JoinStats unmerged = RunAndCheck(a, d, 16, no_merge);
  EXPECT_GT(merged.merged_partitions, 0u);
  EXPECT_EQ(unmerged.merged_partitions, 0u);
}

TEST_F(VpjTest, DisablingPurgingStillCorrect) {
  Random rng(6);
  VpjOptions opts;
  opts.enable_purging = false;
  RunAndCheck(RandomCodes(&rng, 3000, 12), RandomCodes(&rng, 3000, 8), 8, opts);
}

TEST_F(VpjTest, TinyBudgetForcesRecursion) {
  Random rng(7);
  std::vector<Code> a = RandomCodes(&rng, 20000, 12);
  std::vector<Code> d = RandomCodes(&rng, 20000, 8);
  // 20000 records = ~79 pages per side; 8-page budget with a capped cut
  // span forces recursive partitioning.
  JoinStats stats = RunAndCheck(a, d, 8, {});
  EXPECT_GE(stats.recursion_depth, 1u);
}

TEST_F(VpjTest, SkewedDataAllInOneSubtree) {
  Random rng(8);
  // Everything inside one small subtree: the first cut puts all data
  // in one partition and recursion must cut deeper levels.
  PBiTreeSpec spec{kH};
  Code subtree_root = CodeOfTopDown(3, 4, spec);  // a level-4 node
  CodeInterval iv = SubtreeInterval(subtree_root);
  std::unordered_set<Code> seen;
  std::vector<Code> a, d;
  // The subtree holds ~1000 nodes at heights >= 4; sample well under
  // that so unique sampling terminates.
  while (a.size() < 600) {
    Code c = iv.lo + rng.Uniform(iv.hi - iv.lo + 1);
    if (HeightOf(c) >= 4 && HeightOf(c) < HeightOf(subtree_root) &&
        seen.insert(c).second) {
      a.push_back(c);
    }
  }
  while (d.size() < 3000) {
    Code c = iv.lo + rng.Uniform(iv.hi - iv.lo + 1);
    if (HeightOf(c) < 4 && seen.insert(c).second) d.push_back(c);
  }
  RunAndCheck(a, d, 8, {});
}

TEST_F(VpjTest, MismatchedSpecsRejected) {
  auto b1 = ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{10});
  auto b2 = ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{12});
  ASSERT_TRUE(b1.ok() && b2.ok());
  ASSERT_TRUE(b1->AddCode(4).ok());
  ASSERT_TRUE(b2->AddCode(4).ok());
  auto a = b1->Build();
  auto d = b2->Build();
  ASSERT_TRUE(a.ok() && d.ok());
  CountingSink sink;
  JoinContext ctx(bm_.get(), 16);
  EXPECT_EQ(Vpj(&ctx, *a, *d, &sink, {}).code(), StatusCode::kInvalidArgument);
}

TEST_F(VpjTest, IoCostStaysNearThreePasses) {
  // Without recursion the paper's estimate is 3(||A|| + ||D||); allow
  // slack for partition-page overheads but catch pathological blowups.
  Random rng(9);
  std::vector<Code> a = RandomCodes(&rng, 30000, 12);
  std::vector<Code> d = RandomCodes(&rng, 30000, 8);
  ElementSet sa = Make(a), sd = Make(d);
  CountingSink sink;
  JoinContext ctx(bm_.get(), 32);
  DiskStats before = disk_->stats();
  ASSERT_TRUE(Vpj(&ctx, sa, sd, &sink, {}).ok());
  ASSERT_TRUE(bm_->FlushAll().ok());
  DiskStats after = disk_->stats();
  uint64_t io = after.TotalIO() - before.TotalIO();
  uint64_t input_pages = sa.num_pages() + sd.num_pages();
  EXPECT_LE(io, 5 * input_pages);
  EXPECT_GE(io, input_pages);
}

}  // namespace
}  // namespace pbitree
