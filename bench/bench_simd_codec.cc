// Measures the two halves of the SIMD + page-codec work:
//
//   kernels    in-memory throughput (codes/sec) of the batch ancestor
//              kernels with the AVX2 path forced off vs on — the
//              probe-bound inner loops with no I/O in the way.
//   join       MPMGJN over presorted single-height synthetic sets
//              stored raw vs kFoRDelta: identical pair output, fewer
//              pages, and the simulated disk-bound time that falls out.
//
// Knobs on top of bench_common.h:
//   PBITREE_BENCH_REPS            (default 5): timed reps; best wins.
//   PBITREE_BENCH_MIN_SIMD_RATIO  (default 0 = report only): exit
//                                 nonzero unless the BEST kernel
//                                 speedup reaches this factor — CI sets
//                                 1.5. Skipped (with a note) when the
//                                 host has no AVX2: the scalar fallback
//                                 is the point there, not a regression.
//   PBITREE_BENCH_JSON            (default BENCH_simd_codec.json).
//
// The join leg always asserts: byte-identical pair counts across
// codecs and a strictly smaller page count under kFoRDelta.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "common/env.h"
#include "datagen/synthetic.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "pbitree/simd.h"
#include "sort/external_sort.h"
#include "storage/page_codec.h"

namespace pbitree {
namespace bench {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct KernelRow {
  std::string kernel;
  double scalar_cps = 0.0;  // codes per second, AVX2 forced off
  double simd_cps = 0.0;    // codes per second, AVX2 forced on
  double Ratio() const { return scalar_cps == 0.0 ? 0.0 : simd_cps / scalar_cps; }
};

/// Best-of-reps throughput of one kernel pass over `codes_per_pass`
/// codes, with the SIMD flag pinned to `simd`. The checksum keeps the
/// optimiser from discarding the work.
template <typename Body>
double MeasureCps(int reps, int passes, uint64_t codes_per_pass, bool simd,
                  uint64_t* checksum, Body&& body) {
  simd::ScopedEnable scope(simd);
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    uint64_t check = 0;
    double t0 = NowSeconds();
    for (int p = 0; p < passes; ++p) check += body();
    double dt = NowSeconds() - t0;
    *checksum = check;
    best = std::min(best, dt);
  }
  return static_cast<double>(codes_per_pass) * passes / best;
}

std::vector<KernelRow> RunKernelBench(int reps) {
  // One fixed probe-bound dataset: a start-sorted code array of a
  // height-40 tree plus a mid-height ancestor whose subtree covers a
  // few percent of it — the FilterDescendants hit rate of a selective
  // merge step.
  const size_t n = size_t{1} << 20;
  Random rng(42);
  const PBiTreeSpec spec{40};
  std::vector<Code> codes(n);
  for (Code& c : codes) c = rng.Uniform(spec.MaxCode()) + 1;
  std::sort(codes.begin(), codes.end(),
            [](Code a, Code b) { return StartOf(a) < StartOf(b); });
  const Code anc = AncestorAtHeight(codes[n / 2], 35);
  std::vector<Code> out(n);
  std::vector<uint64_t> keys(n);
  std::vector<uint64_t> pairs(2 * n);
  const int passes = 16;

  std::vector<KernelRow> rows;
  auto measure = [&](const char* name, auto&& body) {
    KernelRow row;
    row.kernel = name;
    uint64_t check_scalar = 0, check_simd = 0;
    row.scalar_cps = MeasureCps(reps, passes, n, false, &check_scalar, body);
    row.simd_cps = MeasureCps(reps, passes, n, true, &check_simd, body);
    if (check_scalar != check_simd) {
      std::fprintf(stderr, "KERNEL PARITY FAILURE [%s]: %llu vs %llu\n", name,
                   static_cast<unsigned long long>(check_scalar),
                   static_cast<unsigned long long>(check_simd));
      std::exit(1);
    }
    rows.push_back(row);
  };

  measure("filter_descendants", [&] {
    return static_cast<uint64_t>(
        simd::FilterDescendants(anc, codes.data(), 1, n, out.data()));
  });
  measure("ancestor_mask", [&] {
    uint64_t hits = 0;
    for (size_t base = 0; base + 64 <= n; base += 64) {
      hits += static_cast<uint64_t>(std::popcount(
          simd::AncestorMask64(codes.data() + base, 64, anc)));
    }
    return hits;
  });
  measure("rolled_keys", [&] {
    simd::RolledKeys(codes.data(), 1, n, 20, keys.data());
    return keys[n - 1] + keys[0];
  });
  measure("pack_pairs", [&] {
    simd::PackPairsFixedAncestor(anc, codes.data(), n, pairs.data());
    return pairs[2 * n - 1];
  });
  return rows;
}

struct JoinRow {
  uint64_t pairs = 0;
  uint64_t input_pages = 0;  // a + d stored pages under this codec
  uint64_t total_io = 0;
  double best_seconds = 1e300;       // wall
  double best_sim_seconds = 1e300;   // wall + simulated disk charge
};

ElementSet BuildSorted(BufferManager* bm, const std::vector<ElementRecord>& recs,
                       PBiTreeSpec spec, PageCodecKind codec) {
  auto b = ElementSetBuilder::Create(bm, spec, codec);
  if (!b.ok()) {
    std::fprintf(stderr, "builder: %s\n", b.status().ToString().c_str());
    std::exit(1);
  }
  for (const ElementRecord& rec : recs) {
    if (Status st = b->Add(rec); !st.ok()) {
      std::fprintf(stderr, "add: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  auto set = b->Build();
  if (!set.ok()) {
    std::fprintf(stderr, "build: %s\n", set.status().ToString().c_str());
    std::exit(1);
  }
  set->sorted_by_start = true;  // records arrive presorted
  return *set;
}

std::vector<ElementRecord> ReadSortedRecords(BufferManager* bm,
                                             const HeapFile& file) {
  std::vector<ElementRecord> recs;
  recs.reserve(file.num_records());
  HeapFile::Scanner scan(bm, file);
  ElementRecord rec;
  while (scan.NextElement(&rec)) recs.push_back(rec);
  if (!scan.status().ok()) {
    std::fprintf(stderr, "scan: %s\n", scan.status().ToString().c_str());
    std::exit(1);
  }
  std::sort(recs.begin(), recs.end(),
            [](const ElementRecord& a, const ElementRecord& b) {
              return DocLess(a.code, b.code);
            });
  return recs;
}

JoinRow RunJoinBench(const BenchConfig& cfg, int reps, PageCodecKind codec) {
  Env env(cfg.DefaultBufferPages() + 16);
  SyntheticSpec spec;
  spec.a_count = static_cast<uint64_t>(1e5 * cfg.scale * 10);
  spec.d_count = static_cast<uint64_t>(1e5 * cfg.scale * 10);
  spec.a_heights = {10};
  spec.d_heights = {2};
  spec.match_fraction = 0.2;
  spec.seed = cfg.seed;
  auto ds = GenerateSynthetic(env.bm.get(), spec);
  if (!ds.ok()) {
    std::fprintf(stderr, "generate: %s\n", ds.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<ElementRecord> a_recs = ReadSortedRecords(env.bm.get(), ds->a.file);
  std::vector<ElementRecord> d_recs = ReadSortedRecords(env.bm.get(), ds->d.file);
  PBiTreeSpec tree_spec{spec.tree_height};
  ElementSet a = BuildSorted(env.bm.get(), a_recs, tree_spec, codec);
  ElementSet d = BuildSorted(env.bm.get(), d_recs, tree_spec, codec);

  JoinRow row;
  row.input_pages = a.num_pages() + d.num_pages();
  RunOptions opts;
  opts.work_pages = cfg.DefaultBufferPages();
  opts.simulated_io_ms = cfg.sim_io_ms;
  for (int r = 0; r < reps; ++r) {
    if (Status st = env.bm->PurgeAll(); !st.ok()) {
      std::fprintf(stderr, "PurgeAll: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    CountingSink sink;
    auto res = RunJoin(Algorithm::kMpmgjn, env.bm.get(), a, d, &sink, opts);
    if (!res.ok()) {
      std::fprintf(stderr, "MPMGJN: %s\n", res.status().ToString().c_str());
      std::exit(1);
    }
    row.pairs = res->output_pairs;
    row.total_io = res->TotalIO();
    row.best_seconds = std::min(row.best_seconds, res->wall_seconds);
    row.best_sim_seconds = std::min(row.best_sim_seconds, res->simulated_seconds);
  }
  return row;
}

void WriteJson(const std::string& path, const std::vector<KernelRow>& kernels,
               const JoinRow& raw, const JoinRow& fd) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"bench\": \"simd_codec\",\n  \"avx2\": %s,\n"
               "  \"kernels\": [\n",
               simd::Avx2Available() ? "true" : "false");
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelRow& k = kernels[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"scalar_codes_per_sec\": %.3e, "
                 "\"simd_codes_per_sec\": %.3e, \"ratio\": %.3f}%s\n",
                 k.kernel.c_str(), k.scalar_cps, k.simd_cps, k.Ratio(),
                 i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"join\": {\"algorithm\": \"MPMGJN\", \"pairs\": %llu,\n"
      "    \"raw\": {\"input_pages\": %llu, \"total_io\": %llu, "
      "\"wall_ms\": %.3f, \"simulated_ms\": %.3f},\n"
      "    \"for_delta\": {\"input_pages\": %llu, \"total_io\": %llu, "
      "\"wall_ms\": %.3f, \"simulated_ms\": %.3f},\n"
      "    \"page_reduction\": %.3f}\n}\n",
      static_cast<unsigned long long>(raw.pairs),
      static_cast<unsigned long long>(raw.input_pages),
      static_cast<unsigned long long>(raw.total_io), raw.best_seconds * 1e3,
      raw.best_sim_seconds * 1e3,
      static_cast<unsigned long long>(fd.input_pages),
      static_cast<unsigned long long>(fd.total_io), fd.best_seconds * 1e3,
      fd.best_sim_seconds * 1e3,
      fd.input_pages == 0
          ? 0.0
          : static_cast<double>(raw.input_pages) /
                static_cast<double>(fd.input_pages));
  std::fclose(f);
}

int Run() {
  BenchConfig cfg = BenchConfig::FromEnv();
  const int reps =
      static_cast<int>(EnvInt64Checked("PBITREE_BENCH_REPS", 5, 1, 1000));
  const double min_ratio =
      EnvDoubleChecked("PBITREE_BENCH_MIN_SIMD_RATIO", 0.0, 0.0, 1e6);
  const char* json_env = std::getenv("PBITREE_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_simd_codec.json";

  std::printf("=== batch kernels: scalar vs AVX2 (avx2 %s) ===\n",
              simd::Avx2Available() ? "available" : "NOT available");
  std::vector<KernelRow> kernels = RunKernelBench(reps);
  std::printf("%-20s %14s %14s %8s\n", "kernel", "scalar c/s", "simd c/s",
              "ratio");
  PrintRule(60);
  double best_ratio = 0.0;
  for (const KernelRow& k : kernels) {
    std::printf("%-20s %14.3e %14.3e %7.2fx\n", k.kernel.c_str(), k.scalar_cps,
                k.simd_cps, k.Ratio());
    best_ratio = std::max(best_ratio, k.Ratio());
  }

  std::printf("\n=== MPMGJN: raw vs for-delta pages (scale=%g) ===\n",
              cfg.scale);
  JoinRow raw = RunJoinBench(cfg, reps, PageCodecKind::kRaw);
  JoinRow fd = RunJoinBench(cfg, reps, PageCodecKind::kFoRDelta);
  std::printf("%-10s %12s %10s %10s %12s\n", "codec", "input pages", "io",
              "wall", "simulated");
  PrintRule(60);
  std::printf("%-10s %12llu %10llu %10s %12s\n", "raw",
              static_cast<unsigned long long>(raw.input_pages),
              static_cast<unsigned long long>(raw.total_io),
              FormatSeconds(raw.best_seconds).c_str(),
              FormatSeconds(raw.best_sim_seconds).c_str());
  std::printf("%-10s %12llu %10llu %10s %12s\n", "for-delta",
              static_cast<unsigned long long>(fd.input_pages),
              static_cast<unsigned long long>(fd.total_io),
              FormatSeconds(fd.best_seconds).c_str(),
              FormatSeconds(fd.best_sim_seconds).c_str());

  bool ok = true;
  if (raw.pairs != fd.pairs) {
    std::fprintf(stderr, "PARITY FAILURE: %llu pairs raw vs %llu for-delta\n",
                 static_cast<unsigned long long>(raw.pairs),
                 static_cast<unsigned long long>(fd.pairs));
    ok = false;
  }
  if (fd.input_pages >= raw.input_pages) {
    std::fprintf(stderr,
                 "PAGE FAILURE: for-delta %llu pages not below raw %llu\n",
                 static_cast<unsigned long long>(fd.input_pages),
                 static_cast<unsigned long long>(raw.input_pages));
    ok = false;
  }
  if (min_ratio > 0.0) {
    if (!simd::Avx2Available()) {
      std::printf("\nno AVX2 on this host: ratio floor %.2fx skipped "
                  "(scalar fallback verified by the parity checks)\n",
                  min_ratio);
    } else if (best_ratio < min_ratio) {
      std::fprintf(stderr,
                   "SIMD RATIO FAILURE: best kernel %.2fx below required "
                   "%.2fx\n",
                   best_ratio, min_ratio);
      ok = false;
    }
  }

  WriteJson(json_path, kernels, raw, fd);
  std::printf("\nresults -> %s\n", json_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace pbitree

int main() { return pbitree::bench::Run(); }
