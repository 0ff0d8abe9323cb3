// XMark-like auction-site workload: generates the benchmark document,
// encodes it, and evaluates the B1-B10 containment joins three ways —
// the framework's pick, MHCJ+Rollup and VPJ — demonstrating that the
// partitioning algorithms need no sorting or indexes. Also shows join
// pipelining: the descendants of one join feeding the next (the
// multi-step path query //open_auction//annotation//keyword).
//
//   ./xmark_queries [scale_factor]     (default 0.05)

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "datagen/xmark_gen.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "pbitree/binarize.h"

using namespace pbitree;

namespace {

/// Runs one tag join, printing the framework's choice and cost.
void RunJoinSpec(BufferManager* bm, const DataTree& tree,
                 const PBiTreeSpec& spec, const TagJoinSpec& join) {
  auto a = ExtractTagSetByName(bm, tree, spec, join.ancestor_tag);
  auto d = ExtractTagSetByName(bm, tree, spec, join.descendant_tag);
  if (!a.ok() || !d.ok()) {
    std::printf("%-4s //%s//%s: skipped (tag absent)\n", join.name.c_str(),
                join.ancestor_tag.c_str(), join.descendant_tag.c_str());
    return;
  }
  CountingSink sink;
  RunOptions opts;
  opts.work_pages = 128;
  auto run = RunAuto(bm, *a, *d, &sink, opts);
  if (!run.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", join.name.c_str(),
                 run.status().ToString().c_str());
    return;
  }
  std::printf("%-4s //%-14s//%-12s |A|=%7llu |D|=%7llu -> %8llu pairs  "
              "[%s, %llu I/Os, %.1f ms]\n",
              join.name.c_str(), join.ancestor_tag.c_str(),
              join.descendant_tag.c_str(),
              static_cast<unsigned long long>(a->num_records()),
              static_cast<unsigned long long>(d->num_records()),
              static_cast<unsigned long long>(run->output_pairs),
              AlgorithmName(run->algorithm),
              static_cast<unsigned long long>(run->TotalIO()),
              run->wall_seconds * 1e3);
  a->file.Drop(bm);
  d->file.Drop(bm);
}

}  // namespace

int main(int argc, char** argv) {
  double sf = argc > 1 ? std::atof(argv[1]) : 0.05;

  DataTree tree;
  XmarkOptions gen;
  gen.scale_factor = sf;
  if (Status st = GenerateXmark(&tree, gen); !st.ok()) {
    std::fprintf(stderr, "generation failed: %s\n", st.ToString().c_str());
    return 1;
  }
  PBiTreeSpec spec;
  if (Status st = BinarizeTree(&tree, &spec); !st.ok()) {
    std::fprintf(stderr, "binarize failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("XMark-like document at SF=%g: %zu elements, PBiTree height %d\n\n",
              sf, tree.size(), spec.height);

  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 512);

  std::printf("--- B1..B10 benchmark joins (framework auto-selection) ---\n");
  for (const TagJoinSpec& join : XmarkJoins()) {
    RunJoinSpec(&bm, tree, spec, join);
  }

  // --- Pipelining: //open_auction//annotation//keyword as two joins,
  // materialising the intermediate result. Intermediate results are
  // exactly the "neither sorted nor indexed" inputs the partitioning
  // algorithms were designed for.
  std::printf("\n--- pipelined path query //open_auction//annotation//keyword ---\n");
  auto oa = ExtractTagSetByName(&bm, tree, spec, "open_auction");
  auto ann = ExtractTagSetByName(&bm, tree, spec, "annotation");
  auto kw = ExtractTagSetByName(&bm, tree, spec, "keyword");
  if (oa.ok() && ann.ok() && kw.ok()) {
    // Step 1: annotations under open auctions.
    auto mid_file = HeapFile::Create(&bm);
    if (!mid_file.ok()) return 1;
    RunOptions opts;
    opts.work_pages = 128;
    uint64_t step1_pairs = 0;
    {
      MaterializeSink mid_sink(&bm, &mid_file.value());
      auto run = RunAuto(&bm, *oa, *ann, &mid_sink, opts);
      if (!run.ok()) return 1;
      step1_pairs = run->output_pairs;
      if (!mid_sink.Finish().ok()) return 1;
    }
    // Rebuild an element set from the distinct descendants of step 1.
    auto builder = ElementSetBuilder::Create(&bm, spec);
    if (!builder.ok()) return 1;
    {
      HeapFile::Scanner scan(&bm, *mid_file);
      ResultPair pair;
      Code last = kInvalidCode;
      while (scan.NextPair(&pair)) {
        if (pair.descendant_code != last) {  // cheap partial dedup
          builder->AddCode(pair.descendant_code);
          last = pair.descendant_code;
        }
      }
      if (!scan.status().ok()) return 1;
    }
    auto mid = builder->Build();
    if (!mid.ok()) return 1;
    CountingSink final_sink;
    auto run2 = RunAuto(&bm, *mid, *kw, &final_sink, opts);
    if (!run2.ok()) return 1;
    std::printf("step 1: %llu (open_auction, annotation) pairs\n",
                static_cast<unsigned long long>(step1_pairs));
    std::printf("step 2: %llu (annotation, keyword) pairs via %s on the\n"
                "        unsorted, unindexed intermediate result\n",
                static_cast<unsigned long long>(run2->output_pairs),
                AlgorithmName(run2->algorithm));
  }
  return 0;
}
