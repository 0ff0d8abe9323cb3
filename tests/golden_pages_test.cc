// Golden page table: the paper's twenty tag joins (B1-B10 on an
// XMark-like document, D1-D10 on a DBLP-like one) under every
// algorithm, once each, cold, at the benchmark's paper configuration
// (XMark SF 0.2, DBLP 60k publications, 25 work pages, a pool of 33
// frames, raw pages, one thread). Each (join, algorithm) row's pairs,
// page reads and page writes must equal tests/golden/paper_pages.tsv.
//
// A change that moves a count regenerates the file on purpose:
//
//   build/tests/golden_pages_test --regenerate-golden
//
// and the diff shows which joins and algorithms moved.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/dblp_gen.h"
#include "datagen/xmark_gen.h"
#include "framework/runner.h"
#include "join/algorithm_registry.h"
#include "pbitree/binarize.h"

namespace pbitree {
namespace {

bool g_regenerate = false;

constexpr uint64_t kSeed = 101;
constexpr size_t kWorkPages = 25;
constexpr size_t kPoolPages = kWorkPages + 8;

const char* const kGoldenPath = PBITREE_GOLDEN_DIR "/paper_pages.tsv";
const char* const kHeader = "join\talgorithm\tpairs\tpage_reads\tpage_writes";

/// Runs one document's joins under every algorithm and appends a row per
/// (join, algorithm) to `rows`.
void RunDocument(DataTree* tree, const std::vector<TagJoinSpec>& joins,
                 std::vector<std::string>* rows) {
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(tree, &spec).ok());
  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), kPoolPages);
  for (const TagJoinSpec& join : joins) {
    auto a = ExtractTagSetByName(&bm, *tree, spec, join.ancestor_tag, 0,
                                 PageCodecKind::kRaw);
    auto d = ExtractTagSetByName(&bm, *tree, spec, join.descendant_tag, 0,
                                 PageCodecKind::kRaw);
    ASSERT_TRUE(a.ok() && d.ok()) << join.name;
    for (const AlgorithmInfo& info : AllAlgorithms()) {
      // SHCJ is defined for single-height ancestor sets only.
      if (info.alg == Algorithm::kShcj && !a->SingleHeight()) continue;
      RunOptions opts;
      opts.work_pages = kWorkPages;
      opts.cold_cache = true;
      CountingSink sink;
      auto run = RunJoin(info.alg, &bm, *a, *d, &sink, opts);
      ASSERT_TRUE(run.ok()) << join.name << " " << info.name << ": "
                            << run.status().ToString();
      std::ostringstream row;
      row << join.name << '\t' << info.name << '\t' << run->output_pairs
          << '\t' << run->page_reads << '\t' << run->page_writes;
      rows->push_back(row.str());
    }
    ASSERT_TRUE(a->file.Drop(&bm).ok());
    ASSERT_TRUE(d->file.Drop(&bm).ok());
  }
}

TEST(GoldenPagesTest, PaperJoinsMatchTheTable) {
  std::vector<std::string> rows;
  {
    DataTree tree;
    XmarkOptions gen;
    gen.scale_factor = 0.2;
    gen.seed = kSeed;
    ASSERT_TRUE(GenerateXmark(&tree, gen).ok());
    RunDocument(&tree, XmarkJoins(), &rows);
  }
  {
    DataTree tree;
    DblpOptions gen;
    gen.num_publications = 60000;
    gen.seed = kSeed;
    ASSERT_TRUE(GenerateDblp(&tree, gen).ok());
    RunDocument(&tree, DblpJoins(), &rows);
  }
  if (HasFatalFailure()) return;

  if (g_regenerate) {
    std::ofstream out(kGoldenPath);
    out << kHeader << '\n';
    for (const std::string& row : rows) out << row << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    return;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "missing " << kGoldenPath
                         << "; run with --regenerate-golden";
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, kHeader);
  std::vector<std::string> golden;
  while (std::getline(in, line)) golden.push_back(line);
  ASSERT_EQ(rows.size(), golden.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], golden[i]) << "row " << i + 1;
  }
}

}  // namespace
}  // namespace pbitree

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regenerate-golden") {
      pbitree::g_regenerate = true;
    }
  }
  return RUN_ALL_TESTS();
}
