// Tests for the PBiTree statistics module: height histograms, subtree
// buckets (= VPJ partition sizes), skew detection, and join-selectivity
// estimation accuracy on uniform workloads.

#include "pbitree/stats.h"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "datagen/synthetic.h"
#include "framework/runner.h"
#include "join/result_sink.h"

namespace pbitree {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 128);
  }

  ElementSet MakeSet(const std::vector<Code>& codes, int height) {
    auto b = ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{height});
    EXPECT_TRUE(b.ok());
    for (Code c : codes) EXPECT_TRUE(b->AddCode(c).ok());
    auto built = b->Build();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.value_or(ElementSet{});
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_F(StatsTest, HeightCountsAndMedian) {
  // Heights: 0 x3, 2 x2, 5 x1.
  ElementSet set = MakeSet({1, 3, 5, 4, 12, 32}, 10);
  auto stats = PBiTreeStats::Collect(bm_.get(), set);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->total(), 6u);
  EXPECT_EQ(stats->CountAtHeight(0), 3u);
  EXPECT_EQ(stats->CountAtHeight(2), 2u);
  EXPECT_EQ(stats->CountAtHeight(5), 1u);
  EXPECT_EQ(stats->MedianHeight(), 0);
}

TEST_F(StatsTest, BucketsSumToTotalAndDetectSkew) {
  Random rng(81);
  PBiTreeSpec spec{20};
  // All elements inside one small subtree: maximal skew.
  CodeInterval iv = SubtreeInterval(CodeOfTopDown(5, 4, spec));
  std::unordered_set<Code> seen;
  std::vector<Code> clustered;
  while (clustered.size() < 3000) {
    Code c = iv.lo + rng.Uniform(iv.hi - iv.lo + 1);
    if (seen.insert(c).second) clustered.push_back(c);
  }
  ElementSet set = MakeSet(clustered, 20);
  auto stats = PBiTreeStats::Collect(bm_.get(), set);
  ASSERT_TRUE(stats.ok());

  uint64_t sum = 0;
  for (size_t b = 0; b < stats->num_buckets(); ++b) {
    sum += stats->BucketCount(b);
  }
  EXPECT_EQ(sum, 3000u);
  EXPECT_GT(stats->SkewFactor(), 8.0);

  // Uniform data: low skew.
  std::vector<Code> uniform;
  while (uniform.size() < 3000) {
    Code c = rng.UniformRange(1, spec.MaxCode());
    if (seen.insert(c).second) uniform.push_back(c);
  }
  ElementSet uset = MakeSet(uniform, 20);
  auto ustats = PBiTreeStats::Collect(bm_.get(), uset);
  ASSERT_TRUE(ustats.ok());
  EXPECT_LT(ustats->SkewFactor(), 3.0);
}

TEST_F(StatsTest, SelectivityEstimateTracksUniformRandomJoins) {
  Random rng(82);
  PBiTreeSpec spec{18};
  std::unordered_set<Code> seen;
  std::vector<Code> a_codes, d_codes;
  while (a_codes.size() < 4000) {
    Code c = rng.UniformRange(1, spec.MaxCode());
    int h = HeightOf(c);
    if (h >= 6 && h <= 12 && seen.insert(c).second) a_codes.push_back(c);
  }
  while (d_codes.size() < 8000) {
    Code c = rng.UniformRange(1, spec.MaxCode());
    if (HeightOf(c) < 6 && seen.insert(c).second) d_codes.push_back(c);
  }
  ElementSet a = MakeSet(a_codes, 18);
  ElementSet d = MakeSet(d_codes, 18);

  auto a_stats = PBiTreeStats::Collect(bm_.get(), a);
  auto d_stats = PBiTreeStats::Collect(bm_.get(), d);
  ASSERT_TRUE(a_stats.ok() && d_stats.ok());
  uint64_t estimate = EstimateJoinSelectivity(*a_stats, *d_stats);

  CountingSink sink;
  RunOptions opts;
  opts.work_pages = 64;
  auto run = RunJoin(Algorithm::kMhcjRollup, bm_.get(), a, d, &sink, opts);
  ASSERT_TRUE(run.ok());
  uint64_t actual = run->output_pairs;

  ASSERT_GT(actual, 0u);
  EXPECT_LT(estimate, actual * 4);
  EXPECT_GT(estimate, actual / 4);
}

TEST_F(StatsTest, SelectivityEstimateSeparatesDenseAndSparseJoins) {
  // The estimator's job in an optimizer: rank joins. A planted
  // (high-selectivity) synthetic dataset must estimate far above a
  // sparse one of equal sizes.
  SyntheticSpec dense_spec;
  dense_spec.a_count = dense_spec.d_count = 4000;
  dense_spec.match_fraction = 0.9;
  dense_spec.seed = 83;
  SyntheticSpec sparse_spec = dense_spec;
  sparse_spec.match_fraction = 0.02;

  auto dense = GenerateSynthetic(bm_.get(), dense_spec);
  auto sparse = GenerateSynthetic(bm_.get(), sparse_spec);
  ASSERT_TRUE(dense.ok() && sparse.ok());

  auto da = PBiTreeStats::Collect(bm_.get(), dense->a);
  auto dd = PBiTreeStats::Collect(bm_.get(), dense->d);
  auto sa = PBiTreeStats::Collect(bm_.get(), sparse->a);
  auto sd = PBiTreeStats::Collect(bm_.get(), sparse->d);
  ASSERT_TRUE(da.ok() && dd.ok() && sa.ok() && sd.ok());

  uint64_t dense_est = EstimateJoinSelectivity(*da, *dd);
  uint64_t sparse_est = EstimateJoinSelectivity(*sa, *sd);
  EXPECT_GT(dense_est, sparse_est * 3);
}

TEST_F(StatsTest, IncompatibleStatsEstimateZero) {
  ElementSet s1 = MakeSet({4}, 10);
  ElementSet s2 = MakeSet({4}, 12);
  auto st1 = PBiTreeStats::Collect(bm_.get(), s1);
  auto st2 = PBiTreeStats::Collect(bm_.get(), s2);
  ASSERT_TRUE(st1.ok() && st2.ok());
  EXPECT_EQ(EstimateJoinSelectivity(*st1, *st2), 0u);
}

TEST_F(StatsTest, EmptySet) {
  ElementSet set = MakeSet({}, 10);
  auto stats = PBiTreeStats::Collect(bm_.get(), set);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->total(), 0u);
  EXPECT_EQ(stats->SkewFactor(), 0.0);
  EXPECT_EQ(EstimateJoinSelectivity(*stats, *stats), 0u);
}

}  // namespace
}  // namespace pbitree
