// Path-query walkthrough: evaluates descendant-axis path expressions
// against a generated XMark-like document by decomposing them into a
// chain of containment joins (the Li & Moon framework the paper builds
// on) — every intermediate result is unsorted and unindexed, the exact
// case the PBiTree partitioning algorithms serve.
//
//   ./path_queries                          # built-in demo queries
//   ./path_queries '//site//item//keyword'  # your own path

#include <cstdio>
#include <memory>
#include <vector>

#include "datagen/xmark_gen.h"
#include "framework/planner.h"
#include "pbitree/binarize.h"
#include "query/twig_query.h"

using namespace pbitree;

namespace {

void RunOne(BufferManager* bm, const DataTree& tree, const PBiTreeSpec& spec,
            const std::string& text) {
  auto query = ParseTwigQuery(text);
  if (!query.ok()) {
    std::fprintf(stderr, "%s: %s\n", text.c_str(),
                 query.status().ToString().c_str());
    return;
  }
  RunOptions opts;
  opts.work_pages = 128;
  TwigQueryStats stats;
  auto result = EvaluateTwigQuery(bm, tree, spec, *query, opts, &stats);
  if (!result.ok()) {
    std::printf("%-44s -> %s\n", text.c_str(),
                result.status().ToString().c_str());
    return;
  }
  std::printf("%-44s -> %7llu matches", text.c_str(),
              static_cast<unsigned long long>(stats.final_count));
  if (!stats.joins.empty()) {
    std::printf("   [joins:");
    for (const RunResult& join : stats.joins) {
      std::printf(" %s(%llu pairs)", AlgorithmName(join.algorithm),
                  static_cast<unsigned long long>(join.output_pairs));
    }
    std::printf("]");
  }
  std::printf("\n");
  result->file.Drop(bm);
}

}  // namespace

int main(int argc, char** argv) {
  DataTree tree;
  XmarkOptions gen;
  gen.scale_factor = 0.1;
  if (Status st = GenerateXmark(&tree, gen); !st.ok()) {
    std::fprintf(stderr, "generation failed: %s\n", st.ToString().c_str());
    return 1;
  }
  PBiTreeSpec spec;
  if (Status st = BinarizeTree(&tree, &spec); !st.ok()) {
    std::fprintf(stderr, "binarize failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("XMark-like document: %zu elements, PBiTree height %d\n\n",
              tree.size(), spec.height);

  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 512);

  if (argc > 1) {
    for (int i = 1; i < argc; ++i) RunOne(&bm, tree, spec, argv[i]);
    return 0;
  }
  for (const char* q : {
           "//site//item",
           "//site//person//profile//interest",
           "//open_auction//annotation//keyword",
           "//regions//item//mailbox//mail//text",
           "//description//parlist//listitem//text//keyword",
           "//closed_auction//happiness",
       }) {
    RunOne(&bm, tree, spec, q);
  }
  return 0;
}
