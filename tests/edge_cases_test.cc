// Targeted edge cases across modules: the Grace hash join's
// block-nested-loop fallback under pathological key skew, MHCJ's
// multi-batch height partitioning under tiny budgets, buffer-pool
// purging, serializer pretty-printing, runner cold-cache semantics,
// and the coding functions at the H == kMaxTreeHeight (63) boundary
// where the code space has no slack bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/hash_equijoin.h"
#include "join/mhcj.h"
#include "join/result_sink.h"
#include "pbitree/code.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace pbitree {
namespace {

class EdgeCaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 256);
  }

  ElementSet MakeSet(const std::vector<Code>& codes, int tree_height) {
    auto b = ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{tree_height});
    EXPECT_TRUE(b.ok());
    for (Code c : codes) EXPECT_TRUE(b->AddCode(c).ok());
    auto built = b->Build();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.value_or(ElementSet{});
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_F(EdgeCaseTest, HashJoinSurvivesSingleKeySkew) {
  // Every descendant under ONE ancestor subtree: the rolled key is
  // identical for all of them, so Grace re-partitioning can never
  // split the build side — the block-nested-loop fallback must kick in
  // and still produce the exact result.
  const int kH = 24;
  Code big = AncestorAtHeight(1, 20);  // huge subtree
  CodeInterval iv = SubtreeInterval(big);

  Random rng(61);
  std::unordered_set<Code> seen;
  std::vector<Code> a_codes = {big};
  std::vector<Code> d_codes;
  while (d_codes.size() < 12000) {
    Code c = iv.lo + rng.Uniform(iv.hi - iv.lo + 1);
    if (c != big && seen.insert(c).second) d_codes.push_back(c);
  }
  // Duplicate the ancestor side at lower heights inside the same
  // subtree so the build side is also big and single-keyed. (The
  // subtree holds ~2^17 nodes of height >= 4 — sampling terminates.)
  while (a_codes.size() < 12000) {
    Code c = iv.lo + rng.Uniform(iv.hi - iv.lo + 1);
    if (HeightOf(c) >= 4 && seen.insert(c).second) a_codes.push_back(c);
  }

  ElementSet a = MakeSet(a_codes, kH);
  ElementSet d = MakeSet(d_codes, kH);

  VectorSink collected;
  VerifyingSink sink(&collected);
  JoinContext ctx(bm_.get(), 4);  // tiny budget: forces the fallback path
  ASSERT_TRUE(
      HashEquijoinAtHeight(&ctx, a.file, d.file, HeightOf(big), &sink).ok());

  uint64_t expect = 0;
  for (Code x : a_codes) {
    for (Code y : d_codes) {
      if (IsAncestor(x, y)) ++expect;
    }
  }
  EXPECT_EQ(collected.pairs().size(), expect);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

TEST_F(EdgeCaseTest, MhcjBatchesHeightsWhenBudgetIsTiny) {
  // 12 ancestor heights with a 4-page budget: the height partitioning
  // must run in several passes over A (batch = work_pages - 2 heights).
  const int kH = 20;
  Random rng(62);
  std::unordered_set<Code> seen;
  std::vector<Code> a_codes, d_codes;
  PBiTreeSpec spec{kH};
  while (a_codes.size() < 3000) {
    Code c = rng.UniformRange(1, spec.MaxCode());
    int h = HeightOf(c);
    if (h >= 2 && h <= 13 && seen.insert(c).second) a_codes.push_back(c);
  }
  while (d_codes.size() < 3000) {
    Code c = rng.UniformRange(1, spec.MaxCode());
    if (HeightOf(c) < 2 && seen.insert(c).second) d_codes.push_back(c);
  }
  ElementSet a = MakeSet(a_codes, kH);
  ElementSet d = MakeSet(d_codes, kH);
  ASSERT_GT(a.NumHeights(), 4);

  VectorSink collected;
  VerifyingSink sink(&collected);
  JoinContext ctx(bm_.get(), 4);
  ASSERT_TRUE(Mhcj(&ctx, a, d, &sink).ok());

  std::vector<ResultPair> expect;
  for (Code x : a_codes) {
    for (Code y : d_codes) {
      if (IsAncestor(x, y)) expect.push_back({x, y});
    }
  }
  std::sort(expect.begin(), expect.end());
  collected.Sort();
  EXPECT_EQ(collected.pairs(), expect);
}

TEST_F(EdgeCaseTest, PurgeAllEmptiesThePoolAndKeepsData) {
  auto file = HeapFile::Create(bm_.get());
  ASSERT_TRUE(file.ok());
  {
    HeapFile::Appender app(bm_.get(), &file.value());
    for (uint64_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(app.AppendElement(ElementRecord{i + 1, 0, 0}).ok());
    }
  }
  ASSERT_TRUE(bm_->PurgeAll().ok());
  // Everything must now come from disk...
  uint64_t reads_before = disk_->stats().page_reads;
  HeapFile::Scanner scan(bm_.get(), *file);
  ElementRecord rec;
  uint64_t n = 0;
  while (scan.NextElement(&rec)) ++n;
  EXPECT_TRUE(scan.status().ok()) << scan.status().ToString();
  EXPECT_EQ(n, 1000u);
  EXPECT_EQ(disk_->stats().page_reads - reads_before, file->num_pages());
}

TEST_F(EdgeCaseTest, PurgeAllRefusesWhilePinned) {
  auto p = bm_->NewPage();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(bm_->PurgeAll().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(bm_->UnpinPage((*p)->page_id(), false).ok());
  EXPECT_TRUE(bm_->PurgeAll().ok());
}

TEST_F(EdgeCaseTest, ColdCacheRunsChargeInputReads) {
  Random rng(63);
  std::unordered_set<Code> seen;
  std::vector<Code> codes;
  PBiTreeSpec spec{16};
  while (codes.size() < 5000) {
    Code c = rng.UniformRange(1, spec.MaxCode());
    if (seen.insert(c).second) codes.push_back(c);
  }
  ElementSet a = MakeSet(codes, 16);
  ElementSet d = MakeSet(codes, 16);

  RunOptions warm;
  warm.work_pages = 64;
  warm.cold_cache = false;
  RunOptions cold = warm;
  cold.cold_cache = true;

  CountingSink s0, s1, s2;
  // Prime the pool, then compare a warm and a cold run.
  ASSERT_TRUE(RunJoin(Algorithm::kMhcjRollup, bm_.get(), a, d, &s0, warm).ok());
  auto warm_run = RunJoin(Algorithm::kMhcjRollup, bm_.get(), a, d, &s1, warm);
  auto cold_run = RunJoin(Algorithm::kMhcjRollup, bm_.get(), a, d, &s2, cold);
  ASSERT_TRUE(warm_run.ok() && cold_run.ok());
  EXPECT_EQ(warm_run->output_pairs, cold_run->output_pairs);
  EXPECT_GT(cold_run->page_reads, warm_run->page_reads);
  EXPECT_GE(cold_run->page_reads, a.num_pages() + d.num_pages());
}

TEST(MaxHeightCodingTest, TopDownDomainBoundaries) {
  PBiTreeSpec max{kMaxTreeHeight};  // H = 63
  // Every level of the full-height tree is in-domain, including the
  // deepest (level 62, the leaves) with its largest alpha.
  EXPECT_TRUE(IsValidTopDown(0, 0, max));
  EXPECT_TRUE(IsValidTopDown(0, 62, max));
  EXPECT_TRUE(IsValidTopDown((uint64_t{1} << 62) - 1, 62, max));
  // One past each edge is out.
  EXPECT_FALSE(IsValidTopDown(uint64_t{1} << 62, 62, max));  // alpha too big
  EXPECT_FALSE(IsValidTopDown(0, 63, max));                  // level >= H
  EXPECT_FALSE(IsValidTopDown(0, -1, max));
  EXPECT_FALSE(IsValidTopDown(0, 0, PBiTreeSpec{0}));   // empty tree
  EXPECT_FALSE(IsValidTopDown(0, 0, PBiTreeSpec{64}));  // H > 63
}

TEST(MaxHeightCodingTest, CodesAtHeight63StayInDomainAndRoundTrip) {
  PBiTreeSpec max{kMaxTreeHeight};
  // Root of the full-height tree: level 0, alpha 0.
  Code root = CodeOfTopDown(0, 0, max);
  EXPECT_EQ(root, max.RootCode());
  EXPECT_EQ(root, Code{1} << 62);
  EXPECT_TRUE(IsValidCode(root, max));

  // Rightmost leaf: the largest legal code, 2^63 - 1. Its region must
  // not wrap even though there are no slack bits above it.
  Code last_leaf = CodeOfTopDown((uint64_t{1} << 62) - 1, 62, max);
  EXPECT_EQ(last_leaf, max.MaxCode());
  EXPECT_EQ(last_leaf, (Code{1} << 63) - 1);
  EXPECT_TRUE(IsValidCode(last_leaf, max));
  EXPECT_EQ(HeightOf(last_leaf), 0);
  EXPECT_EQ(ToRegion(last_leaf), (Region{last_leaf, last_leaf}));

  // The root's region spans the whole code space.
  EXPECT_EQ(ToRegion(root), (Region{1, max.MaxCode()}));
  EXPECT_TRUE(IsAncestor(root, last_leaf));

  // G and its inverses agree on a sample of (alpha, level) pairs.
  for (int level : {0, 1, 31, 61, 62}) {
    uint64_t top = (uint64_t{1} << level) - 1;
    for (uint64_t alpha : {uint64_t{0}, top / 2, top}) {
      Code c = CodeOfTopDown(alpha, level, max);
      EXPECT_TRUE(IsValidCode(c, max)) << level << "/" << alpha;
      EXPECT_EQ(LevelOf(c, max), level);
      EXPECT_EQ(AlphaOf(c, max), alpha);
    }
  }
}

TEST(MaxHeightCodingTest, CheckedTopDownRejectsOutOfDomain) {
  PBiTreeSpec max{kMaxTreeHeight};
  auto ok = CheckedCodeOfTopDown((uint64_t{1} << 62) - 1, 62, max);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, max.MaxCode());

  EXPECT_EQ(CheckedCodeOfTopDown(uint64_t{1} << 62, 62, max).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckedCodeOfTopDown(0, 63, max).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckedCodeOfTopDown(0, -1, max).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckedCodeOfTopDown(0, 0, PBiTreeSpec{0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckedCodeOfTopDown(0, 0, PBiTreeSpec{64}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MaxHeightCodingTest, IsValidCodeGuardsDegenerateSpecs) {
  // Specs outside [1, 63] have no legal codes — and asking must not be
  // undefined behaviour (MaxCode() would shift by >= 64 for H > 63).
  EXPECT_FALSE(IsValidCode(1, PBiTreeSpec{0}));
  EXPECT_FALSE(IsValidCode(1, PBiTreeSpec{64}));
  EXPECT_FALSE(IsValidCode(1, PBiTreeSpec{-1}));
  EXPECT_FALSE(IsValidCode(0, PBiTreeSpec{16}));  // 0 is reserved
  EXPECT_TRUE(IsValidCode(1, PBiTreeSpec{1}));    // smallest tree: one leaf
  EXPECT_FALSE(IsValidCode(2, PBiTreeSpec{1}));
}

TEST(SerializerIndentTest, PrettyPrintsAndRoundTrips) {
  DataTree tree;
  ASSERT_TRUE(ParseXml("<a><b><c/></b><d>t</d></a>", &tree).ok());
  SerializeOptions opts;
  opts.indent = true;
  std::string pretty = SerializeXml(tree, opts);
  EXPECT_NE(pretty.find("\n  <b>"), std::string::npos);
  EXPECT_NE(pretty.find("\n    <c/>"), std::string::npos);
  DataTree again;
  ASSERT_TRUE(ParseXml(pretty, &again).ok());
  EXPECT_EQ(again.size(), tree.size());
}

TEST(SinkCountTest, StatsAndSinkAgreeAcrossAlgorithms) {
  // stats.output_pairs must equal the sink count for every algorithm
  // (guards against double counting on some path).
  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 128);
  Random rng(64);
  std::unordered_set<Code> seen;
  std::vector<Code> codes;
  PBiTreeSpec spec{14};
  while (codes.size() < 2000) {
    Code c = rng.UniformRange(1, spec.MaxCode());
    if (seen.insert(c).second) codes.push_back(c);
  }
  auto b1 = ElementSetBuilder::Create(&bm, spec);
  auto b2 = ElementSetBuilder::Create(&bm, spec);
  ASSERT_TRUE(b1.ok() && b2.ok());
  for (Code c : codes) {
    ASSERT_TRUE(b1->AddCode(c).ok());
    ASSERT_TRUE(b2->AddCode(c).ok());
  }
  auto a = b1->Build();
  auto d = b2->Build();
  ASSERT_TRUE(a.ok() && d.ok());

  RunOptions opts;
  opts.work_pages = 16;
  for (Algorithm alg : {Algorithm::kVpj, Algorithm::kMhcj,
                        Algorithm::kMhcjRollup, Algorithm::kStackTree,
                        Algorithm::kMpmgjn, Algorithm::kInljn, Algorithm::kAdb}) {
    CountingSink sink;
    auto run = RunJoin(alg, &bm, *a, *d, &sink, opts);
    ASSERT_TRUE(run.ok()) << AlgorithmName(alg);
    EXPECT_EQ(run->output_pairs, sink.count()) << AlgorithmName(alg);
    EXPECT_EQ(run->stats.output_pairs, sink.count()) << AlgorithmName(alg);
  }
}

}  // namespace
}  // namespace pbitree
