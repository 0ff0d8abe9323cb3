// The central correctness suite: every containment-join algorithm must
// produce exactly the brute-force result set on a battery of dataset
// shapes (uniform random, nested chains, self-joins, single-height,
// boundary-tie-heavy) across memory budgets small enough to force
// external sorting, Grace partitioning and VPJ recursion.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "zero_padded_printer.h"

namespace pbitree {
namespace {

constexpr int kTreeHeight = 16;

struct JoinCase {
  Algorithm algorithm;
  size_t work_pages;
  size_t threads = 1;
};

void PrintTo(const JoinCase& c, std::ostream* os) {
  PrintZeroPadded(c, os, &JoinCase::algorithm, &JoinCase::work_pages,
                  &JoinCase::threads);
}

std::string CaseName(const ::testing::TestParamInfo<JoinCase>& info) {
  std::string n = AlgorithmName(info.param.algorithm);
  for (char& c : n) {
    if (c == '+') c = 'P';
  }
  n += "_b" + std::to_string(info.param.work_pages);
  if (info.param.threads > 1) {
    n += "_t" + std::to_string(info.param.threads);
  }
  return n;
}

class JoinCorrectnessTest : public ::testing::TestWithParam<JoinCase> {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 256);
  }

  ElementSet MakeSet(const std::vector<Code>& codes) {
    auto builder = ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{kTreeHeight});
    EXPECT_TRUE(builder.ok());
    for (Code c : codes) EXPECT_TRUE(builder->AddCode(c).ok()) << c;
    return builder->Build();
  }

  static std::vector<ResultPair> BruteForce(const std::vector<Code>& a,
                                            const std::vector<Code>& d) {
    std::vector<ResultPair> out;
    for (Code x : a) {
      for (Code y : d) {
        if (IsAncestor(x, y)) out.push_back(ResultPair{x, y});
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Runs the parameterised algorithm on (a, d) and checks the result
  /// set (as a sorted multiset) against brute force.
  void CheckJoin(const std::vector<Code>& a_codes,
                 const std::vector<Code>& d_codes) {
    ElementSet a = MakeSet(a_codes);
    ElementSet d = MakeSet(d_codes);

    VectorSink collected;
    VerifyingSink sink(&collected);  // failure injection: every pair re-checked
    RunOptions opts;
    opts.work_pages = GetParam().work_pages;
    opts.threads = GetParam().threads;
    auto run = RunJoin(GetParam().algorithm, bm_.get(), a, d, &sink, opts);
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    collected.Sort();
    std::vector<ResultPair> expect = BruteForce(a_codes, d_codes);
    ASSERT_EQ(collected.pairs().size(), expect.size());
    EXPECT_EQ(collected.pairs(), expect);
    EXPECT_EQ(run->output_pairs, expect.size());
    // One unsegmented pair always joins serially, whatever `threads`
    // says: the segment is the only parallel unit.
    EXPECT_EQ(run->metrics.counter(obs::Counter::kPoolTasks), 0u);
    EXPECT_EQ(bm_->PinnedFrames(), 0u);

    ASSERT_TRUE(a.file.Drop(bm_.get()).ok());
    ASSERT_TRUE(d.file.Drop(bm_.get()).ok());
  }

  std::vector<Code> RandomCodes(Random* rng, int n, int min_height,
                                int max_height) {
    std::unordered_set<Code> seen;
    std::vector<Code> out;
    PBiTreeSpec spec{kTreeHeight};
    while (static_cast<int>(out.size()) < n) {
      Code c = rng->UniformRange(1, spec.MaxCode());
      int h = HeightOf(c);
      if (h < min_height || h > max_height) continue;
      if (seen.insert(c).second) out.push_back(c);
    }
    return out;
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_P(JoinCorrectnessTest, UniformRandomSets) {
  Random rng(42);
  std::vector<Code> a = RandomCodes(&rng, 400, 1, kTreeHeight - 1);
  std::vector<Code> d = RandomCodes(&rng, 800, 0, kTreeHeight - 2);
  CheckJoin(a, d);
}

TEST_P(JoinCorrectnessTest, DenselyNestedChains) {
  // Ancestor chains: many results per descendant, exercising the stack
  // depth and the rollup false-hit filter.
  Random rng(43);
  PBiTreeSpec spec{kTreeHeight};
  std::set<Code> a_set, d_set;
  for (int i = 0; i < 60; ++i) {
    Code leaf = rng.UniformRange(0, spec.MaxCode() / 2) * 2 + 1;
    d_set.insert(leaf);
    for (int h = 1; h < kTreeHeight - 1; ++h) {
      a_set.insert(AncestorAtHeight(leaf, h));
    }
  }
  CheckJoin({a_set.begin(), a_set.end()}, {d_set.begin(), d_set.end()});
}

TEST_P(JoinCorrectnessTest, SelfJoinSameElementsBothSides) {
  // //section//section-style self-joins: the same codes appear in both
  // sets; reflexive pairs must not be emitted.
  Random rng(44);
  std::vector<Code> codes = RandomCodes(&rng, 500, 0, kTreeHeight - 1);
  CheckJoin(codes, codes);
}

TEST_P(JoinCorrectnessTest, BoundaryTieHeavySets) {
  // Elements sharing region boundaries (a node plus the extreme leaves
  // of its subtree) — the Lemma-3 tie cases the sort order and the
  // emit filters must handle.
  Random rng(45);
  std::set<Code> a_set, d_set;
  for (int i = 0; i < 150; ++i) {
    Code c = rng.UniformRange(1, PBiTreeSpec{kTreeHeight}.MaxCode());
    a_set.insert(c);
    d_set.insert(StartOf(c));  // leftmost leaf: shares Start with c
    d_set.insert(EndOf(c));    // rightmost leaf: shares End with c
    d_set.insert(c);
  }
  CheckJoin({a_set.begin(), a_set.end()}, {d_set.begin(), d_set.end()});
}

TEST_P(JoinCorrectnessTest, EmptyInputsProduceNothing) {
  std::vector<Code> some = {5, 20, 33};
  CheckJoin({}, some);
  CheckJoin(some, {});
  CheckJoin({}, {});
}

TEST_P(JoinCorrectnessTest, NoMatchesAtAll) {
  // A and D in disjoint subtrees of the root's two children.
  Random rng(46);
  PBiTreeSpec spec{kTreeHeight};
  Code left = spec.RootCode() / 2;    // root of left half
  Code right = spec.RootCode() + spec.RootCode() / 2;
  std::vector<Code> a, d;
  CodeInterval li = SubtreeInterval(left), ri = SubtreeInterval(right);
  for (int i = 0; i < 200; ++i) {
    a.push_back(li.lo + rng.Uniform(li.hi - li.lo + 1));
    d.push_back(ri.lo + rng.Uniform(ri.hi - ri.lo + 1));
  }
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(d.begin(), d.end());
  d.erase(std::unique(d.begin(), d.end()), d.end());
  CheckJoin(a, d);
}

TEST_P(JoinCorrectnessTest, RootContainsEverything) {
  Random rng(47);
  PBiTreeSpec spec{kTreeHeight};
  std::vector<Code> a = {spec.RootCode()};
  std::vector<Code> d = RandomCodes(&rng, 700, 0, kTreeHeight - 2);
  CheckJoin(a, d);
}

// SHCJ is only defined for single-height ancestor sets, so it gets its
// own shape; the general matrix runs the other seven algorithms. The
// partitioned algorithms run twice more at threads=4: RunJoin must stay
// serial (no pool tasks) and give the identical result set
// (VerifyingSink re-checks each pair, the sorted comparison catches
// drops/duplicates).
INSTANTIATE_TEST_SUITE_P(
    Matrix, JoinCorrectnessTest,
    ::testing::Values(JoinCase{Algorithm::kVpj, 8},
                      JoinCase{Algorithm::kVpj, 16},
                      JoinCase{Algorithm::kVpj, 64},
                      JoinCase{Algorithm::kVpj, 16, 4},
                      JoinCase{Algorithm::kVpj, 64, 4},
                      JoinCase{Algorithm::kMhcj, 4},
                      JoinCase{Algorithm::kMhcj, 64},
                      JoinCase{Algorithm::kMhcj, 16, 4},
                      JoinCase{Algorithm::kMhcjRollup, 4},
                      JoinCase{Algorithm::kMhcjRollup, 16},
                      JoinCase{Algorithm::kMhcjRollup, 64},
                      JoinCase{Algorithm::kMhcjRollup, 16, 4},
                      JoinCase{Algorithm::kStackTree, 3},
                      JoinCase{Algorithm::kStackTree, 16},
                      JoinCase{Algorithm::kMpmgjn, 4},
                      JoinCase{Algorithm::kMpmgjn, 4, 4},
                      JoinCase{Algorithm::kInljn, 8},
                      JoinCase{Algorithm::kInljn, 64},
                      JoinCase{Algorithm::kAdb, 8},
                      JoinCase{Algorithm::kAdb, 64}),
    CaseName);

class ShcjTest : public JoinCorrectnessTest {};

TEST_P(ShcjTest, SingleHeightAncestorSets) {
  Random rng(48);
  for (int h : {3, 6, 9}) {
    // The level at height h has 2^(H-1-h) slots; stay under half of it
    // so unique sampling terminates.
    int slots = 1 << (kTreeHeight - 1 - h);
    std::vector<Code> a = RandomCodes(&rng, std::min(200, slots / 2), h, h);
    std::vector<Code> d = RandomCodes(&rng, 600, 0, h + 2);
    CheckJoin(a, d);
  }
}

TEST_P(ShcjTest, RejectsMultiHeightAncestors) {
  Random rng(49);
  ElementSet a = MakeSet(RandomCodes(&rng, 50, 1, 8));
  ElementSet d = MakeSet(RandomCodes(&rng, 50, 0, 4));
  ASSERT_GT(a.NumHeights(), 1);
  CountingSink sink;
  RunOptions opts;
  opts.work_pages = GetParam().work_pages;
  auto run = RunJoin(Algorithm::kShcj, bm_.get(), a, d, &sink, opts);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Shcj, ShcjTest,
                         ::testing::Values(JoinCase{Algorithm::kShcj, 4},
                                           JoinCase{Algorithm::kShcj, 64},
                                           JoinCase{Algorithm::kShcj, 16, 4}),
                         CaseName);

}  // namespace
}  // namespace pbitree
