// Demonstrates the containment query processing framework (Table 1 of
// the paper): the same join on raw and on Start-sorted inputs, with the
// framework selecting a partitioning algorithm or STACKTREE
// accordingly, then every algorithm run explicitly on the raw inputs.
// Stored sets are never indexed, so INLJN and ADB+ build their index on
// the fly and the measured cost includes the build.

#include <cstdio>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "sort/external_sort.h"

using namespace pbitree;

namespace {

ElementSet MakeRandomSet(BufferManager* bm, const PBiTreeSpec& spec, int n,
                         int min_h, int max_h, uint64_t seed) {
  auto builder = ElementSetBuilder::Create(bm, spec);
  Random rng(seed);
  std::unordered_set<Code> seen;
  int added = 0;
  while (added < n) {
    Code c = rng.UniformRange(1, spec.MaxCode());
    int h = HeightOf(c);
    if (h < min_h || h > max_h || !seen.insert(c).second) continue;
    builder->AddCode(c);
    ++added;
  }
  return builder->Build().value_or(ElementSet{});
}

}  // namespace

int main() {
  PBiTreeSpec spec{22};
  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 512);

  ElementSet a = MakeRandomSet(&bm, spec, 20000, 6, 14, 1);
  ElementSet d = MakeRandomSet(&bm, spec, 40000, 0, 5, 2);
  std::printf("inputs: |A| = %llu (heights %d..%d), |D| = %llu\n\n",
              static_cast<unsigned long long>(a.num_records()), a.MinHeight(),
              a.MaxHeight(), static_cast<unsigned long long>(d.num_records()));

  RunOptions base;
  base.work_pages = 64;

  std::printf("%-34s %-12s %10s %10s %10s\n", "configuration", "algorithm",
              "pairs", "page I/O", "ms");

  auto report = [](const char* config, const RunResult& r) {
    std::printf("%-34s %-12s %10llu %10llu %10.1f\n", config,
                AlgorithmName(r.algorithm),
                static_cast<unsigned long long>(r.output_pairs),
                static_cast<unsigned long long>(r.TotalIO()),
                r.wall_seconds * 1e3);
  };

  // --- Row 4 of Table 1: neither sorted nor indexed.
  {
    CountingSink sink;
    auto run = RunAuto(&bm, a, d, &sink, base);
    if (!run.ok()) return 1;
    report("raw (no sort, no index)", *run);
  }

  // --- Row 2: both sorted.
  auto sorted_a_file = SortToFile(&bm, a.file, 64, SortOrder::kStartOrder);
  auto sorted_d_file = SortToFile(&bm, d.file, 64, SortOrder::kStartOrder);
  if (!sorted_a_file.ok() || !sorted_d_file.ok()) return 1;
  ElementSet sa = a, sd = d;
  sa.file = **sorted_a_file;
  sa.sorted_by_start = true;
  sd.file = **sorted_d_file;
  sd.sorted_by_start = true;
  {
    CountingSink sink;
    auto run = RunAuto(&bm, sa, sd, &sink, base);
    if (!run.ok()) return 1;
    report("both sorted", *run);
  }

  // --- Explicit algorithm requests, for comparison.
  std::printf("\nexplicit algorithm runs on the raw inputs:\n");
  for (Algorithm alg : {Algorithm::kVpj, Algorithm::kMhcjRollup,
                        Algorithm::kStackTree, Algorithm::kMpmgjn,
                        Algorithm::kInljn, Algorithm::kAdb}) {
    CountingSink sink;
    auto run = RunJoin(alg, &bm, a, d, &sink, base);
    if (!run.ok()) return 1;
    report("  (prerequisites built on the fly)", *run);
  }
  return 0;
}
