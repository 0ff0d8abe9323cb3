// DBLP-like bibliography workload: generates the record collection,
// encodes it, and contrasts the index-free partitioning algorithm the
// framework picks with the two index-based joins on the D1-D10 joins.
// INLJN and ADB+ build their index on the fly over the unindexed
// inputs, as in the paper's experiments, so their I/O includes the
// build. Exits non-zero if any algorithm's result count disagrees.
//
//   ./dblp_bibliography [num_publications]     (default 20000)

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "datagen/dblp_gen.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "pbitree/binarize.h"

using namespace pbitree;

int main(int argc, char** argv) {
  uint64_t pubs = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;

  DataTree tree;
  DblpOptions gen;
  gen.num_publications = pubs;
  if (Status st = GenerateDblp(&tree, gen); !st.ok()) {
    std::fprintf(stderr, "generation failed: %s\n", st.ToString().c_str());
    return 1;
  }
  PBiTreeSpec spec;
  if (Status st = BinarizeTree(&tree, &spec); !st.ok()) {
    std::fprintf(stderr, "binarize failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("DBLP-like bibliography: %llu records, %zu elements, height %d\n\n",
              static_cast<unsigned long long>(pubs), tree.size(), spec.height);

  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 512);

  std::printf("%-4s %-26s %10s | %-12s %8s | %8s | %8s\n", "id", "join",
              "#results", "framework", "I/Os", "INLJN", "ADB+");

  bool mismatch = false;

  for (const TagJoinSpec& join : DblpJoins()) {
    auto a = ExtractTagSetByName(&bm, tree, spec, join.ancestor_tag);
    auto d = ExtractTagSetByName(&bm, tree, spec, join.descendant_tag);
    if (!a.ok() || !d.ok()) {
      std::printf("%-4s skipped (tag absent at this scale)\n", join.name.c_str());
      continue;
    }

    RunOptions opts;
    opts.work_pages = 128;

    // Index-free: the framework picks a partitioning algorithm.
    CountingSink s1;
    auto free_run = RunAuto(&bm, *a, *d, &s1, opts);
    if (!free_run.ok()) return 1;
    CountingSink s2;
    auto inljn = RunJoin(Algorithm::kInljn, &bm, *a, *d, &s2, opts);
    if (!inljn.ok()) return 1;
    CountingSink s3;
    auto adb = RunJoin(Algorithm::kAdb, &bm, *a, *d, &s3, opts);
    if (!adb.ok()) return 1;

    const bool agree = free_run->output_pairs == inljn->output_pairs &&
                       free_run->output_pairs == adb->output_pairs;
    mismatch = mismatch || !agree;
    std::string label = join.ancestor_tag + std::string("//") + join.descendant_tag;
    std::printf("%-4s %-26s %10llu | %-12s %8llu | %8llu | %8llu%s\n",
                join.name.c_str(), label.c_str(),
                static_cast<unsigned long long>(free_run->output_pairs),
                AlgorithmName(free_run->algorithm),
                static_cast<unsigned long long>(free_run->TotalIO()),
                static_cast<unsigned long long>(inljn->TotalIO()),
                static_cast<unsigned long long>(adb->TotalIO()),
                agree ? "" : "  MISMATCH!");
    a->file.Drop(&bm);
    d->file.Drop(&bm);
  }
  if (mismatch) {
    std::fprintf(stderr, "result counts disagree between algorithms\n");
    return 1;
  }

  std::printf(
      "\nTakeaway: on unindexed inputs INLJN and ADB+ pay for an index\n"
      "build on every run, so the partitioning algorithms win — row 4 of\n"
      "Table 1 of the paper.\n");
  return 0;
}
