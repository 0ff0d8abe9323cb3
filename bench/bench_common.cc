#include "bench/bench_common.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "datagen/synthetic.h"

namespace pbitree {
namespace bench {

BenchConfig BenchConfig::FromEnv() {
  BenchConfig c;
  // Checked reads: a knob set to nonsense (scale <= 0, negative
  // latency) aborts with the accepted range instead of producing an
  // empty dataset or a silently-clamped value.
  c.scale = EnvDoubleChecked("PBITREE_BENCH_SCALE", c.scale, 1e-6, 1e3);
  c.seed = static_cast<uint64_t>(
      EnvInt64Checked("PBITREE_BENCH_SEED", 42, 0, INT64_MAX));
  c.sim_io_ms = EnvDoubleChecked("PBITREE_SIM_IO_MS", c.sim_io_ms, 0.0, 1e6);
  return c;
}

size_t BenchConfig::DefaultBufferPages() const {
  // Paper: 500 pages against 10^6-element sets (~3922 pages), i.e. a
  // buffer-to-data ratio of ~12.7%.
  auto pages = static_cast<size_t>(500 * scale);
  return pages < 16 ? 16 : pages;
}

Env::Env(size_t pool_pages)
    : disk(DiskManager::OpenInMemory()),
      bm(std::make_unique<BufferManager>(disk.get(), pool_pages + 4)) {}

namespace {

/// PBITREE_METRICS_JSON=<path> sink: one JSON object per measured
/// operation, appended as a line (JSONL). Key set and order are fixed
/// by RunResult + MetricsSnapshot::ToJson, so downstream tooling (and
/// the CI determinism check) can diff runs line by line.
///
/// Several bench processes may share one sink file (the CI smoke job
/// runs them concurrently), so each record goes out as exactly one
/// write(2) on an O_APPEND descriptor: POSIX appends are atomic per
/// write, which keeps lines whole — no interleaved partial records —
/// where stdio's buffered fprintf could flush a record in pieces.
void MaybeDumpMetrics(const char* op, const RunResult& r) {
  static const char* path = std::getenv("PBITREE_METRICS_JSON");
  if (path == nullptr || *path == '\0') return;

  char head[256];
  std::snprintf(head, sizeof(head),
                "{\"op\":\"%s\",\"algorithm\":\"%s\",\"page_reads\":%llu,"
                "\"page_writes\":%llu,\"output_pairs\":%llu,"
                "\"wall_seconds\":%.6f,\"metrics\":",
                op, AlgorithmName(r.algorithm),
                static_cast<unsigned long long>(r.page_reads),
                static_cast<unsigned long long>(r.page_writes),
                static_cast<unsigned long long>(r.output_pairs),
                r.wall_seconds);
  std::string line = head;
  line += r.metrics.ToJson();
  line += "}\n";

  int fd = ::open(path, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    std::fprintf(stderr, "warning: cannot open PBITREE_METRICS_JSON file %s\n",
                 path);
    return;
  }
  const char* p = line.data();
  size_t n = line.size();
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "warning: PBITREE_METRICS_JSON write failed: %s\n",
                   std::strerror(errno));
      break;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  ::close(fd);
}

}  // namespace

RunResult MustRun(Algorithm alg, BufferManager* bm, const ElementSet& a,
                  const ElementSet& d, const RunOptions& opts) {
  CountingSink sink;
  auto run = RunJoin(alg, bm, a, d, &sink, opts);
  if (!run.ok()) {
    std::fprintf(stderr, "FATAL: %s failed: %s\n", AlgorithmName(alg),
                 run.status().ToString().c_str());
    std::abort();
  }
  MaybeDumpMetrics("run", *run);
  return *run;
}

MinRgnResult MustRunMinRgn(BufferManager* bm, const ElementSet& a,
                           const ElementSet& d, const RunOptions& opts) {
  auto run = RunMinRgn(bm, a, d, opts);
  if (!run.ok()) {
    std::fprintf(stderr, "FATAL: MIN_RGN failed: %s\n",
                 run.status().ToString().c_str());
    std::abort();
  }
  MaybeDumpMetrics("min_rgn", run->inljn);
  MaybeDumpMetrics("min_rgn", run->stacktree);
  MaybeDumpMetrics("min_rgn", run->adb);
  return *run;
}

double ImprovementRatio(double t_ref, double t_alg) {
  if (t_ref <= 0.0) return 0.0;
  return (t_ref - t_alg) / t_ref;
}

void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

void PrintCell(const std::string& s, int width) {
  std::printf("%-*s", width, s.c_str());
}

std::string FormatSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", s);
  return buf;
}

std::string FormatRatio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", r * 100.0);
  return buf;
}

void RunBufferSweep(const std::string& dataset, Algorithm partitioned) {
  BenchConfig cfg = BenchConfig::FromEnv();
  std::printf("=== Figure 6(%s): elapsed time vs buffer size, %s ===\n",
              dataset == "SLLL" ? "e" : "f", dataset.c_str());
  std::printf("scale=%g  sim_io=%.2f ms/page\n\n", cfg.scale, cfg.sim_io_ms);

  // The P axis only means something when P% of the smaller input stays
  // above the algorithms' minimal pool, so this figure floors the
  // dataset at 200k elements regardless of the global scale (cheap:
  // the cost model is counted I/O, not wall time).
  double sweep_scale = std::max(cfg.scale, 0.2);
  auto spec = CanonicalSpecByName(dataset, sweep_scale, cfg.seed);
  if (!spec.ok()) {
    std::fprintf(stderr, "unknown dataset %s\n", dataset.c_str());
    return;
  }
  std::printf("dataset scale for this sweep: %g\n\n", sweep_scale);

  std::printf("%-7s %8s | %10s %10s %10s\n", "P", "buffer", "MIN_RGN",
              AlgorithmName(partitioned), "VPJ");
  PrintRule(54);

  const double percents[] = {0.5, 1, 2, 4, 8, 16};
  for (double p : percents) {
    // One fresh environment per point: the pool size is the variable.
    // Work pages = P% of the smaller set's page count (the paper's
    // definition), floored at the algorithms' minimum.
    uint64_t min_records = std::min(spec->a_count, spec->d_count);
    uint64_t min_pages =
        (min_records + HeapFile::kRecordsPerPage - 1) / HeapFile::kRecordsPerPage;
    auto pages = static_cast<size_t>(min_pages * p / 100.0);
    if (pages < 8) pages = 8;

    Env env(pages);
    auto ds = GenerateSynthetic(env.bm.get(), *spec);
    if (!ds.ok()) {
      std::fprintf(stderr, "generate: %s\n", ds.status().ToString().c_str());
      return;
    }
    RunOptions opts;
    opts.cold_cache = true;
    opts.work_pages = pages;
    opts.simulated_io_ms = cfg.sim_io_ms;

    MinRgnResult min_rgn = MustRunMinRgn(env.bm.get(), ds->a, ds->d, opts);
    RunResult part = MustRun(partitioned, env.bm.get(), ds->a, ds->d, opts);
    RunResult vpj = MustRun(Algorithm::kVpj, env.bm.get(), ds->a, ds->d, opts);

    char plabel[16];
    std::snprintf(plabel, sizeof(plabel), "%.1f%%", p);
    std::printf("%-7s %8zu | %10s %10s %10s\n", plabel, pages,
                FormatSeconds(min_rgn.best().simulated_seconds).c_str(),
                FormatSeconds(part.simulated_seconds).c_str(),
                FormatSeconds(vpj.simulated_seconds).c_str());
  }
  std::printf(
      "\n(paper: all degrade at P=0.5%%; the partitioning algorithms work\n"
      " well from P~1%% and keep improving with memory, while MIN_RGN\n"
      " flattens beyond P=2%%)\n");
}

void RunScalabilitySweep(bool multi_height) {
  BenchConfig cfg = BenchConfig::FromEnv();
  std::printf("=== Figure 6(%s): scalability, %s-height datasets ===\n",
              multi_height ? "h" : "g", multi_height ? "multiple" : "single");
  std::printf("scale=%g  buffer=%zu pages  sim_io=%.2f ms/page\n\n", cfg.scale,
              cfg.DefaultBufferPages(), cfg.sim_io_ms);

  Algorithm horizontal =
      multi_height ? Algorithm::kMhcjRollup : Algorithm::kShcj;
  std::printf("%10s %10s | %10s %10s %10s\n", "elements", "#results",
              "MIN_RGN", AlgorithmName(horizontal), "VPJ");
  PrintRule(60);

  // The paper's unit B = 5*10^4 elements per step, k = 1..8.
  const auto unit = static_cast<uint64_t>(50000 * cfg.scale * 5);
  for (int k = 1; k <= 8; ++k) {
    SyntheticSpec spec;
    spec.tree_height = 40;
    spec.a_count = spec.d_count = unit * k;
    spec.match_fraction = 0.5;
    spec.seed = cfg.seed + k;
    if (multi_height) {
      spec.a_heights = {10, 11, 12};
      spec.d_heights = {2, 3, 4, 5};
    } else {
      spec.a_heights = {10};
      spec.d_heights = {2};
    }

    Env env(cfg.DefaultBufferPages());
    auto ds = GenerateSynthetic(env.bm.get(), spec);
    if (!ds.ok()) {
      std::fprintf(stderr, "generate k=%d: %s\n", k,
                   ds.status().ToString().c_str());
      return;
    }
    RunOptions opts;
    opts.cold_cache = true;
    opts.work_pages = cfg.DefaultBufferPages();
    opts.simulated_io_ms = cfg.sim_io_ms;

    MinRgnResult min_rgn = MustRunMinRgn(env.bm.get(), ds->a, ds->d, opts);
    RunResult part = MustRun(horizontal, env.bm.get(), ds->a, ds->d, opts);
    RunResult vpj = MustRun(Algorithm::kVpj, env.bm.get(), ds->a, ds->d, opts);

    std::printf("%10llu %10llu | %10s %10s %10s\n",
                static_cast<unsigned long long>(spec.a_count),
                static_cast<unsigned long long>(part.output_pairs),
                FormatSeconds(min_rgn.best().simulated_seconds).c_str(),
                FormatSeconds(part.simulated_seconds).c_str(),
                FormatSeconds(vpj.simulated_seconds).c_str());
  }
  std::printf(
      "\n(paper: every algorithm scales linearly in the data size and the\n"
      " partitioning algorithms stay consistently below MIN_RGN)\n");
}

}  // namespace bench
}  // namespace pbitree
