// Ablation for the paper's footnote b of Table 1: "XR-stack has been
// shown to outperform Anc_Des_B+ algorithm in [8]".
//
// With all access paths prebuilt (sorted inputs, Start B+-trees for
// ADB+, XR-trees for XR-stack), sweep the join selectivity: as matches
// get sparser, skipping matters more. Expected shape: STACKTREE's cost
// is flat (always scans everything); ADB+ skips descendants but reads
// ancestor runs; XR-stack skips both sides via the stab lists and wins
// at low selectivity.

#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "index/bptree.h"
#include "index/xrtree.h"
#include "join/adb.h"
#include "join/stack_tree.h"
#include "join/xr_stack.h"
#include "sort/external_sort.h"

namespace pbitree {
namespace bench {
namespace {

constexpr int kTreeHeight = 30;

/// Clustered ancestor set + descendants of which only `match_permille`
/// per-thousand live under an ancestor cluster.
void MakeWorkload(Random* rng, uint64_t n_a, uint64_t n_d, int match_permille,
                  std::vector<Code>* a, std::vector<Code>* d) {
  PBiTreeSpec spec{kTreeHeight};
  std::unordered_set<Code> seen;
  a->clear();
  d->clear();
  // 8 ancestor clusters at level 6.
  std::vector<CodeInterval> clusters;
  for (int i = 0; i < 8; ++i) {
    clusters.push_back(SubtreeInterval(CodeOfTopDown(i * 7 + 3, 6, spec)));
  }
  while (a->size() < n_a) {
    const CodeInterval& iv = clusters[rng->Uniform(clusters.size())];
    Code c = iv.lo + rng->Uniform(iv.hi - iv.lo + 1);
    if (HeightOf(c) >= 4 && HeightOf(c) <= 16 && seen.insert(c).second) {
      a->push_back(c);
    }
  }
  while (d->size() < n_d) {
    Code c;
    if (rng->Uniform(1000) < static_cast<uint64_t>(match_permille)) {
      Code anc = (*a)[rng->Uniform(a->size())];
      CodeInterval iv = SubtreeInterval(anc);
      c = iv.lo + rng->Uniform(iv.hi - iv.lo + 1);
    } else {
      c = rng->UniformRange(1, spec.MaxCode());
    }
    if (HeightOf(c) <= 2 && seen.insert(c).second) d->push_back(c);
  }
}

void Run() {
  BenchConfig cfg = BenchConfig::FromEnv();
  std::printf("=== Ablation (Table 1 footnote): XR-stack vs ADB+ vs STACKTREE ===\n");
  std::printf("prebuilt indexes; cost = page I/O of the join only\n\n");

  const auto n = static_cast<uint64_t>(2000000 * cfg.scale);
  std::printf("%10s | %12s %12s %12s | %10s %10s\n", "matches/1k",
              "IO(STACK)", "IO(ADB+)", "IO(XRstack)", "skipsADB", "skipsXR");
  PrintRule(78);

  for (int permille : {500, 100, 20, 4, 0}) {
    Env env(256);
    Random rng(cfg.seed + permille);
    std::vector<Code> a_codes, d_codes;
    MakeWorkload(&rng, n / 4, n, permille, &a_codes, &d_codes);

    auto make_set = [&](const std::vector<Code>& codes) {
      auto b = ElementSetBuilder::Create(env.bm.get(), PBiTreeSpec{kTreeHeight});
      for (Code c : codes) b->AddCode(c);
      return b->Build().value_or(ElementSet{});
    };
    ElementSet a = make_set(a_codes), d = make_set(d_codes);

    // Prebuild every access path outside the measured window.
    auto a_sorted = ExternalSort(env.bm.get(), a.file, 128, SortOrder::kStartOrder);
    auto d_sorted = ExternalSort(env.bm.get(), d.file, 128, SortOrder::kStartOrder);
    if (!a_sorted.ok() || !d_sorted.ok()) return;
    ElementSet sa = a, sd = d;
    sa.file = *a_sorted;
    sa.sorted_by_start = true;
    sd.file = *d_sorted;
    sd.sorted_by_start = true;
    auto a_bpt = BPTree::BulkLoad(env.bm.get(), *a_sorted, KeyKind::kStart);
    auto d_bpt = BPTree::BulkLoad(env.bm.get(), *d_sorted, KeyKind::kStart);
    auto a_xr = XRTree::BulkLoad(env.bm.get(), *a_sorted);
    auto d_xr = XRTree::BulkLoad(env.bm.get(), *d_sorted);
    if (!a_bpt.ok() || !d_bpt.ok() || !a_xr.ok() || !d_xr.ok()) return;

    auto measure = [&](auto&& fn) -> std::pair<uint64_t, uint64_t> {
      env.bm->PurgeAll();
      DiskStats before = env.disk->stats();
      JoinContext ctx(env.bm.get(), 128);
      CountingSink sink;
      Status st = fn(&ctx, &sink);
      env.bm->FlushAll();
      if (!st.ok()) {
        std::fprintf(stderr, "join failed: %s\n", st.ToString().c_str());
        std::abort();
      }
      DiskStats after = env.disk->stats();
      return {after.TotalIO() - before.TotalIO(), ctx.stats.index_probes};
    };

    uint64_t pairs_expected = 0;
    auto [io_stack, _s] = measure([&](JoinContext* ctx, CountingSink* sink) {
      Status st = StackTreeJoin(ctx, sa, sd, sink);
      pairs_expected = ctx->stats.output_pairs;
      return st;
    });
    auto [io_adb, skips_adb] = measure([&](JoinContext* ctx, CountingSink* sink) {
      Status st = AdbJoin(ctx, sa, sd, *a_bpt, *d_bpt, sink);
      if (ctx->stats.output_pairs != pairs_expected) {
        std::fprintf(stderr, "ADB+ result mismatch!\n");
      }
      return st;
    });
    auto [io_xr, skips_xr] = measure([&](JoinContext* ctx, CountingSink* sink) {
      Status st = XrStackJoin(ctx, a, d, *a_xr, *d_xr, sink);
      if (ctx->stats.output_pairs != pairs_expected) {
        std::fprintf(stderr, "XR-stack result mismatch!\n");
      }
      return st;
    });

    std::printf("%10d | %12llu %12llu %12llu | %10llu %10llu\n", permille,
                static_cast<unsigned long long>(io_stack),
                static_cast<unsigned long long>(io_adb),
                static_cast<unsigned long long>(io_xr),
                static_cast<unsigned long long>(skips_adb),
                static_cast<unsigned long long>(skips_xr));
  }
  std::printf(
      "\n(expected: STACKTREE flat; ADB+ and XR-stack drop with selectivity,\n"
      " XR-stack lowest at the sparse end — the [8] footnote's claim)\n");
}

}  // namespace
}  // namespace bench
}  // namespace pbitree

int main() {
  pbitree::bench::Run();
  return 0;
}
