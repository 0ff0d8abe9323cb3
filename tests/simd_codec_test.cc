// Differential proof for the SIMD kernels and the page codecs: every
// algorithm must emit the byte-identical pair SEQUENCE (pairs and
// order, no sorting) across the full {page codec} x {simd on/off}
// matrix — the kernels are drop-in replacements for the scalar inner
// loops and a codec only changes how pages are stored, never what a
// scan yields. The document-shaped half covers the seven general
// algorithms; a synthetic single-height ancestor set brings SHCJ into
// the matrix, completing the 8-algorithm sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/random.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "pbitree/binarize.h"
#include "pbitree/simd.h"
#include "storage/page_codec.h"

namespace pbitree {
namespace {

constexpr PageCodecKind kCodecs[] = {PageCodecKind::kRaw,
                                     PageCodecKind::kFoRDelta};

class SimdCodecTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 256);
  }

  /// Exact emission sequence of one (algorithm, inputs, simd) cell —
  /// unsorted, so equality means identical pairs in identical order.
  std::vector<ResultPair> RunExact(Algorithm alg, const ElementSet& a,
                                   const ElementSet& d, bool simd) {
    VectorSink collected;
    VerifyingSink sink(&collected);
    RunOptions opts;
    opts.work_pages = 8;  // exercise the partitioning / spill paths
    simd::ScopedEnable kernels(simd);
    auto run = RunJoin(alg, bm_.get(), a, d, &sink, opts);
    EXPECT_TRUE(run.ok()) << AlgorithmName(alg) << ": "
                          << run.status().ToString();
    return collected.pairs();
  }

  /// Runs the remaining three matrix cells of `alg` and requires each
  /// to reproduce the raw+scalar reference sequence exactly.
  void SweepMatrix(Algorithm alg, const ElementSet inputs[2][2],
                   const std::vector<ResultPair>& reference) {
    for (size_t ci = 0; ci < 2; ++ci) {
      for (bool simd : {false, true}) {
        if (ci == 0 && !simd) continue;  // the reference cell itself
        EXPECT_EQ(RunExact(alg, inputs[ci][0], inputs[ci][1], simd),
                  reference)
            << AlgorithmName(alg) << " codec=" << PageCodecName(kCodecs[ci])
            << " simd=" << simd;
      }
    }
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_P(SimdCodecTest, DocumentJoinsIdenticalAcrossCodecAndSimd) {
  Random rng(GetParam());
  DataTree tree;
  tree.CreateRoot("root");
  std::vector<NodeId> pool = {tree.root()};
  const char* tags[] = {"sec", "par", "fig", "note"};
  while (tree.size() < 1200) {
    NodeId parent = pool[rng.Uniform(pool.size())];
    if (tree.node(parent).children.size() > 14) continue;
    pool.push_back(tree.AddChild(parent, tags[rng.Uniform(4)]));
  }
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());

  // The same logical sets extracted once per codec: [codec][a, d].
  ElementSet inputs[2][2];
  for (size_t ci = 0; ci < 2; ++ci) {
    auto sa = ExtractTagSetByName(bm_.get(), tree, spec, "sec", 0, kCodecs[ci]);
    auto sd = ExtractTagSetByName(bm_.get(), tree, spec, "fig", 0, kCodecs[ci]);
    ASSERT_TRUE(sa.ok() && sd.ok());
    inputs[ci][0] = *sa;
    inputs[ci][1] = *sd;
  }
  // Same records either way; document order compresses.
  EXPECT_EQ(inputs[1][0].num_records(), inputs[0][0].num_records());
  EXPECT_LE(inputs[1][0].num_pages(), inputs[0][0].num_pages());
  EXPECT_LE(inputs[1][1].num_pages(), inputs[0][1].num_pages());

  std::vector<ResultPair> vpj_sorted;
  for (Algorithm alg : {Algorithm::kVpj, Algorithm::kMhcj,
                        Algorithm::kMhcjRollup, Algorithm::kStackTree,
                        Algorithm::kMpmgjn, Algorithm::kInljn,
                        Algorithm::kAdb}) {
    std::vector<ResultPair> reference =
        RunExact(alg, inputs[0][0], inputs[0][1], /*simd=*/false);
    SweepMatrix(alg, inputs, reference);
    // Cross-algorithm agreement of the decoded data (pair multiset).
    std::sort(reference.begin(), reference.end());
    if (vpj_sorted.empty()) {
      vpj_sorted = std::move(reference);
    } else {
      EXPECT_EQ(reference, vpj_sorted) << AlgorithmName(alg);
    }
  }
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

TEST_P(SimdCodecTest, SingleHeightMatrixIncludesShcj) {
  Random rng(GetParam());
  // SHCJ only accepts a single-height ancestor set, so the document
  // inputs above can't drive it. Build one synthetically: every node at
  // one PBiTree height as ancestors, random distinct lower codes as
  // descendants (appended in random order — the runners that need
  // sorted inputs sort on the fly).
  const PBiTreeSpec spec{16};
  const int anc_height = 10;
  std::vector<ElementRecord> ancs;
  for (uint64_t alpha = 0;
       alpha < (uint64_t{1} << spec.LevelOfHeight(anc_height)); ++alpha) {
    ancs.push_back(
        {CodeOfTopDown(alpha, spec.LevelOfHeight(anc_height), spec), 1, 0});
  }
  std::vector<ElementRecord> descs;
  std::vector<Code> seen;
  while (descs.size() < 500) {
    Code c = rng.Uniform(spec.MaxCode()) + 1;
    if (HeightOf(c) >= anc_height) continue;
    if (std::find(seen.begin(), seen.end(), c) != seen.end()) continue;
    seen.push_back(c);
    descs.push_back({c, 2, 0});
  }

  ElementSet inputs[2][2];
  for (size_t ci = 0; ci < 2; ++ci) {
    for (size_t side = 0; side < 2; ++side) {
      auto b = ElementSetBuilder::Create(bm_.get(), spec, kCodecs[ci]);
      ASSERT_TRUE(b.ok());
      for (const ElementRecord& rec : (side == 0 ? ancs : descs)) {
        ASSERT_TRUE(b->Add(rec).ok());
      }
      auto built = b->Build();
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      inputs[ci][side] = *built;
    }
  }
  ASSERT_TRUE(inputs[0][0].SingleHeight());

  std::vector<ResultPair> vpj_sorted;
  for (Algorithm alg : {Algorithm::kShcj, Algorithm::kMhcj,
                        Algorithm::kMhcjRollup, Algorithm::kVpj,
                        Algorithm::kInljn, Algorithm::kStackTree,
                        Algorithm::kMpmgjn, Algorithm::kAdb}) {
    std::vector<ResultPair> reference =
        RunExact(alg, inputs[0][0], inputs[0][1], /*simd=*/false);
    SweepMatrix(alg, inputs, reference);
    std::sort(reference.begin(), reference.end());
    if (vpj_sorted.empty()) {
      vpj_sorted = std::move(reference);
    } else {
      EXPECT_EQ(reference, vpj_sorted) << AlgorithmName(alg);
    }
  }
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdCodecTest,
                         ::testing::Values(11, 23, 37, 59));

}  // namespace
}  // namespace pbitree
