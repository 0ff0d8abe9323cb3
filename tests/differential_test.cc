// Differential property sweep: on randomly generated documents and
// synthetic code sets, every containment-join algorithm of the
// paper's framework must produce the identical pair multiset.
// Parameterised over seeds so each instantiation explores a different
// document shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/random.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "pbitree/binarize.h"

namespace pbitree {
namespace {

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 256);
  }

  /// Random document, binarized; returns two tag sets as join inputs.
  void MakeDocumentInputs(Random* rng, ElementSet* a, ElementSet* d) {
    DataTree tree;
    tree.CreateRoot("root");
    std::vector<NodeId> pool = {tree.root()};
    const char* tags[] = {"sec", "par", "fig", "note"};
    while (tree.size() < 1200) {
      NodeId parent = pool[rng->Uniform(pool.size())];
      if (tree.node(parent).children.size() > 14) continue;
      pool.push_back(tree.AddChild(parent, tags[rng->Uniform(4)]));
    }
    PBiTreeSpec spec;
    ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());
    auto sa = ExtractTagSetByName(bm_.get(), tree, spec, "sec");
    auto sd = ExtractTagSetByName(bm_.get(), tree, spec, "fig");
    ASSERT_TRUE(sa.ok() && sd.ok());
    *a = *sa;
    *d = *sd;
  }

  std::vector<ResultPair> RunVia(Algorithm alg, const ElementSet& a,
                                 const ElementSet& d) {
    VectorSink collected;
    VerifyingSink sink(&collected);
    RunOptions opts;
    opts.work_pages = 8;  // small enough to exercise partitioning paths
    auto run = RunJoin(alg, bm_.get(), a, d, &sink, opts);
    EXPECT_TRUE(run.ok()) << AlgorithmName(alg) << ": "
                          << run.status().ToString();
    collected.Sort();
    return collected.pairs();
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_P(DifferentialTest, AllAlgorithmsAgreeOnRandomDocuments) {
  Random rng(GetParam());
  ElementSet a, d;
  MakeDocumentInputs(&rng, &a, &d);

  const std::vector<ResultPair> reference = RunVia(Algorithm::kVpj, a, d);
  for (Algorithm alg : {Algorithm::kMhcj, Algorithm::kMhcjRollup,
                        Algorithm::kStackTree, Algorithm::kMpmgjn,
                        Algorithm::kInljn, Algorithm::kAdb}) {
    EXPECT_EQ(RunVia(alg, a, d), reference) << AlgorithmName(alg);
  }

  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

/// Sink that deliberately implements ONLY OnPair, so every batch the
/// joins emit is unrolled by the ResultSink base-class fallback. Runs
/// against it exercise the per-pair path through the same batch
/// emission machinery.
class PairOnlySink : public ResultSink {
 public:
  Status OnPair(Code a, Code d) override {
    ++count_;
    pairs_.push_back(ResultPair{a, d});
    return Status::OK();
  }

  const std::vector<ResultPair>& pairs() const { return pairs_; }

 private:
  std::vector<ResultPair> pairs_;
};

using BatchParityTest = DifferentialTest;

TEST_P(BatchParityTest, BatchAndPerPairSinksSeeIdenticalEmissionOrder) {
  Random rng(GetParam());
  ElementSet a, d;
  MakeDocumentInputs(&rng, &a, &d);

  RunOptions opts;
  opts.work_pages = 8;
  for (Algorithm alg : {Algorithm::kVpj, Algorithm::kMhcj,
                        Algorithm::kMhcjRollup, Algorithm::kStackTree,
                        Algorithm::kMpmgjn, Algorithm::kInljn,
                        Algorithm::kAdb}) {
    {
      // Warm-up: fault the inputs into the buffer pool so both measured
      // runs see the same cache state and their I/O counts compare.
      CountingSink warm;
      ASSERT_TRUE(RunJoin(alg, bm_.get(), a, d, &warm, opts).ok());
    }
    VectorSink batched;
    auto run_b = RunJoin(alg, bm_.get(), a, d, &batched, opts);
    ASSERT_TRUE(run_b.ok()) << AlgorithmName(alg);

    PairOnlySink per_pair;
    auto run_p = RunJoin(alg, bm_.get(), a, d, &per_pair, opts);
    ASSERT_TRUE(run_p.ok()) << AlgorithmName(alg);

    // Exact sequence equality — order included, no sorting. The batch
    // path must be a pure re-blocking of the per-pair stream.
    EXPECT_EQ(batched.pairs(), per_pair.pairs()) << AlgorithmName(alg);
    EXPECT_EQ(run_b->output_pairs, run_p->output_pairs) << AlgorithmName(alg);
    // Identical page traffic either way: the sink's shape must not
    // change what the join reads or writes.
    EXPECT_EQ(run_b->TotalIO(), run_p->TotalIO()) << AlgorithmName(alg);
  }
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchParityTest,
                         ::testing::Values(17, 29, 43));

}  // namespace
}  // namespace pbitree
