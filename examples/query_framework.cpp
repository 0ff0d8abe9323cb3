// Demonstrates the containment query processing framework (Table 1 of
// the paper): the same join executed under every combination of
// available access paths — raw, sorted, indexed, both — with the
// framework selecting INLJN / STACKTREE / ADB+ / SHCJ / VPJ
// accordingly, and the measured cost of each configuration.

#include <cstdio>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "framework/runner.h"
#include "index/bptree.h"
#include "index/interval_index.h"
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

  ElementSet a = MakeRandomSet(&bm, spec, 40000, 6, 14, 1);
  ElementSet d = MakeRandomSet(&bm, spec, 80000, 0, 5, 2);
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
  auto sorted_a_file = ExternalSort(&bm, a.file, 64, SortOrder::kStartOrder);
  auto sorted_d_file = ExternalSort(&bm, d.file, 64, SortOrder::kStartOrder);
  if (!sorted_a_file.ok() || !sorted_d_file.ok()) return 1;
  ElementSet sa = a, sd = d;
  sa.file = *sorted_a_file;
  sa.sorted_by_start = true;
  sd.file = *sorted_d_file;
  sd.sorted_by_start = true;
  {
    CountingSink sink;
    auto run = RunAuto(&bm, sa, sd, &sink, base);
    if (!run.ok()) return 1;
    report("both sorted", *run);
  }

  // --- Row 1: indexes, unsorted. Build the INLJN access paths.
  auto d_by_code = ExternalSort(&bm, d.file, 64, SortOrder::kCodeOrder);
  if (!d_by_code.ok()) return 1;
  auto d_code_index = BPTree::BulkLoad(&bm, *d_by_code, KeyKind::kCode);
  d_by_code->Drop(&bm);
  auto a_by_start = ExternalSort(&bm, a.file, 64, SortOrder::kStartOrder);
  if (!a_by_start.ok()) return 1;
  auto a_interval = IntervalIndex::BulkLoad(&bm, *a_by_start);
  a_by_start->Drop(&bm);
  if (!d_code_index.ok() || !a_interval.ok()) return 1;
  {
    RunOptions opts = base;
    opts.paths.d_code_index = &d_code_index.value();
    opts.paths.a_interval_index = &a_interval.value();
    CountingSink sink;
    auto run = RunAuto(&bm, a, d, &sink, opts);
    if (!run.ok()) return 1;
    report("indexed (B+-tree + interval)", *run);
  }

  // --- Row 3: sorted AND indexed -> ADB+ (Start-keyed B+-trees).
  auto a_start_index = BPTree::BulkLoad(&bm, *sorted_a_file, KeyKind::kStart);
  auto d_start_index = BPTree::BulkLoad(&bm, *sorted_d_file, KeyKind::kStart);
  if (!a_start_index.ok() || !d_start_index.ok()) return 1;
  {
    RunOptions opts = base;
    opts.paths.a_start_index = &a_start_index.value();
    opts.paths.d_start_index = &d_start_index.value();
    CountingSink sink;
    auto run = RunAuto(&bm, sa, sd, &sink, opts);
    if (!run.ok()) return 1;
    report("sorted + indexed", *run);
  }

  // --- Explicit algorithm requests, for comparison.
  std::printf("\nexplicit algorithm runs on the raw inputs:\n");
  for (Algorithm alg : {Algorithm::kVpj, Algorithm::kMhcjRollup,
                        Algorithm::kStackTree, Algorithm::kMpmgjn,
                        Algorithm::kInljn, Algorithm::kAdb}) {
    CountingSink sink;
    auto run = RunJoin(alg, &bm, a, d, &sink, base);
    if (!run.ok()) return 1;
    report("  (naive prerequisites on the fly)", *run);
  }
  return 0;
}
