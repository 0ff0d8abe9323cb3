// Tests for the analytical cost model: estimates must track measured
// page I/O on real runs within a small factor, on either page codec,
// and rank the algorithms as Table 1 does in the canonical cases.

#include "framework/cost_model.h"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "framework/runner.h"
#include "join/element_set.h"

namespace pbitree {
namespace {

TEST(SortCostTest, InMemoryAndMultiPass) {
  EXPECT_EQ(SortCostPages(10, 16), 10u);  // fits: read once
  // 7 runs, streamed by the final merge: read, write runs, read runs.
  EXPECT_EQ(SortCostPages(100, 16), 300u);
  // 10000 pages, b=16: 625 runs; the final merge holds at most 13, so
  // fan-in-15 passes take 625 -> 42 -> 3 runs: 2 merge passes.
  EXPECT_EQ(SortCostPages(10000, 16), 10000u + 2u * 10000 * 3);
}

TEST(CostModelTest, PartitioningBeatsNaiveSortWhenMemoryIsTight) {
  // Tight for a streamed sort: more runs (80 per input) than its final
  // merge can hold (47), so each sort needs a merge pass.
  CostInputs in;
  in.a_pages = in.d_pages = 4000;
  in.a_records = in.d_records = 4000 * 255;
  in.work_pages = 50;
  uint64_t partitioned = EstimateJoinIO(Algorithm::kVpj, in);
  uint64_t naive_sorted = EstimateJoinIO(Algorithm::kStackTree, in);
  EXPECT_LT(partitioned, naive_sorted);
  // 3(||A|| + ||D||) exactly.
  EXPECT_EQ(partitioned, 3u * 8000);
}

TEST(CostModelTest, SortedInputsFlipTheChoice) {
  CostInputs in;
  in.a_pages = in.d_pages = 4000;
  in.a_records = in.d_records = 4000 * 255;
  in.work_pages = 500;
  in.a_sorted = in.d_sorted = true;
  EXPECT_LT(EstimateJoinIO(Algorithm::kStackTree, in),
            EstimateJoinIO(Algorithm::kVpj, in));
}

TEST(CostModelTest, NoAccessPathsPrefersPartitioning) {
  CostInputs in;
  in.a_pages = in.d_pages = 4000;
  in.a_records = in.d_records = 4000 * 255;
  in.work_pages = 100;
  const uint64_t partitioned = EstimateJoinIO(Algorithm::kVpj, in);
  EXPECT_EQ(EstimateJoinIO(Algorithm::kMhcjRollup, in), partitioned);
  EXPECT_EQ(EstimateJoinIO(Algorithm::kShcj, in), partitioned);
  // A sort whose final merge streams into STACKTREE costs what a Grace
  // partitioning pass does: 3(||A|| + ||D||).
  EXPECT_EQ(EstimateJoinIO(Algorithm::kStackTree, in), partitioned);
  for (Algorithm alg :
       {Algorithm::kMpmgjn, Algorithm::kInljn, Algorithm::kAdb}) {
    EXPECT_LT(partitioned, EstimateJoinIO(alg, in)) << AlgorithmName(alg);
  }
}

TEST(CostModelTest, InMemoryDiscountApplies) {
  CostInputs in;
  in.a_pages = 10;
  in.d_pages = 4000;
  in.a_records = 2550;
  in.d_records = 4000 * 255;
  in.work_pages = 500;  // A fits: one pass over each input
  EXPECT_EQ(EstimateJoinIO(Algorithm::kMhcjRollup, in), 4010u);
}

class CostVsMeasuredTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 64);

    Random rng(4);
    PBiTreeSpec spec{20};
    std::unordered_set<Code> seen;
    auto make = [&](int n, int min_h, int max_h) {
      auto b = ElementSetBuilder::Create(bm_.get(), spec);
      EXPECT_TRUE(b.ok());
      int added = 0;
      while (added < n) {
        Code c = rng.UniformRange(1, spec.MaxCode());
        int h = HeightOf(c);
        if (h < min_h || h > max_h || !seen.insert(c).second) continue;
        EXPECT_TRUE(b->AddCode(c).ok());
        ++added;
      }
      auto built = b->Build();
      EXPECT_TRUE(built.ok()) << built.status().ToString();
      return built.value_or(ElementSet{});
    };
    a_ = make(20000, 4, 12);
    d_ = make(30000, 0, 3);
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
  ElementSet a_, d_;
};

TEST_F(CostVsMeasuredTest, EstimatesTrackMeasuredIO) {
  RunOptions opts;
  opts.work_pages = 16;
  opts.cold_cache = true;
  CostInputs in = CostInputs::FromSets(a_, d_, opts.work_pages);

  for (Algorithm alg :
       {Algorithm::kMhcj, Algorithm::kMhcjRollup, Algorithm::kVpj,
        Algorithm::kStackTree}) {
    CountingSink sink;
    auto run = RunJoin(alg, bm_.get(), a_, d_, &sink, opts);
    ASSERT_TRUE(run.ok()) << AlgorithmName(alg);
    uint64_t est = EstimateJoinIO(alg, in);
    uint64_t meas = run->TotalIO();
    // STACKTREE's sorts are priced at raw density like the runs they
    // write, which keeps it within 1.5x on both codecs.
    const double bound = alg == Algorithm::kStackTree ? 1.5 : 3.0;
    EXPECT_LT(est, meas * bound) << AlgorithmName(alg) << " est " << est
                                 << " meas " << meas;
    EXPECT_LT(meas, est * bound) << AlgorithmName(alg) << " est " << est
                                 << " meas " << meas;
  }
}

}  // namespace
}  // namespace pbitree
