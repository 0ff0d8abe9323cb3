// perfbench: one benchmark binary for the three workloads (see
// perfbench/run.py for the command-line contract and BENCHMARK.json for
// the metrics it is held to).
//
//   perfbench --workload paper_direct|served_mixed|sharded_parallel
//             --seed N --seconds S --trace 0|1 --workdir DIR
//             [--trace-out FILE] [--scale X]
//
// Sets the workload up 3 times (setup_s is the median), runs
// it untimed for 2 s, measures it for S seconds and checks its outputs.
// With --trace 1 the S seconds split into an untraced half and a traced
// half; the traced half gives the per-layer metrics, the pair of halves
// the tracing overhead, and its spans go to --trace-out. Prints every
// metric by name with its unit, then one JSON line. Exit status: 0 on
// success, 1 when a correctness gate fails, 2 on a usage or set-up
// failure.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kWarmupSeconds = 2.0;
constexpr int kSetups = 3;  // set-ups per run; setup_s is their median

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_direct|served_mixed|sharded_parallel --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--trace-out FILE] "
               "[--scale X]\n",
               why.c_str());
  std::exit(2);
}

double ParseNumber(const std::string& flag, const std::string& v, double lo,
                   double hi) {
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || !(x >= lo && x <= hi)) {
    Usage("bad value '" + v + "' for " + flag);
  }
  return x;
}

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      cfg.workload = v;
    } else if (flag == "--seed") {
      cfg.seed = static_cast<uint64_t>(ParseNumber(flag, v, 0, 1e15));
    } else if (flag == "--seconds") {
      cfg.seconds = ParseNumber(flag, v, 0.01, 3600);
      have_seconds = true;
    } else if (flag == "--trace") {
      cfg.trace = ParseNumber(flag, v, 0, 1) != 0.0;
    } else if (flag == "--workdir") {
      cfg.workdir = v;
    } else if (flag == "--trace-out") {
      cfg.trace_out = v;
    } else if (flag == "--scale") {
      cfg.scale = ParseNumber(flag, v, 1e-3, 100);
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (cfg.workload.empty() || cfg.workdir.empty() || !have_seconds) {
    Usage("--workload, --seconds and --workdir are required");
  }
  return cfg;
}

std::unique_ptr<Workload> MakeWorkload(const Config& cfg) {
  if (cfg.workload == "paper_direct") return MakePaperDirect(cfg);
  if (cfg.workload == "served_mixed") return MakeServedMixed(cfg);
  if (cfg.workload == "sharded_parallel") return MakeShardedParallel(cfg);
  Usage("unknown workload '" + cfg.workload + "'");
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

/// Seconds a set-up spent in each layer, from its spans.
struct SetupLayers {
  double generate_s = 0.0, binarize_s = 0.0, load_s = 0.0, open_s = 0.0;
};

SetupLayers SetupLayersOf(const Tracer& tracer) {
  SetupLayers out;
  for (const auto& [name, t] : tracer.Totals()) {
    const double s = t.total_ms / 1e3;
    if (name.rfind("Generate", 0) == 0) {
      out.generate_s += s;
    } else if (name == "BinarizeTree") {
      out.binarize_s += s;
    } else if (name == "ExtractTagSetByName" || name == "Catalog::Save" ||
               name == "SegmentStore::StoreSet" ||
               name == "SegmentStore::SaveCatalogs") {
      out.load_s += s;
    } else if (name == "SegmentStore::Open" ||
               name == "ElementSetStore::Open") {
      out.open_s += s;
    }
  }
  return out;
}

void AddEndToEnd(const PhaseResult& r, double setup_s, Report* e2e) {
  e2e->Add("setup_s", setup_s, "s", "median of the run's set-ups");
  e2e->AddDist("query_ms", Summarize(r.query_ms), "ms");
  char note[64];
  const double wall = r.wall_s;
  if (r.round_queries_per_s.empty()) {
    std::snprintf(note, sizeof(note), "over %.3f s", wall);
    e2e->Add("queries_per_s", Ratio(static_cast<double>(r.queries), wall),
             "1/s", note);
    e2e->Add("pairs_per_s", Ratio(static_cast<double>(r.pairs), wall), "1/s",
             note);
  } else {
    std::snprintf(note, sizeof(note), "median of %zu rounds",
                  r.round_queries_per_s.size());
    e2e->Add("queries_per_s", Median(r.round_queries_per_s), "1/s", note);
    e2e->Add("pairs_per_s", Median(r.round_pairs_per_s), "1/s", note);
  }
  e2e->Add("pages_per_query",
           Ratio(static_cast<double>(r.pages), static_cast<double>(r.queries)),
           "pages", "page reads + writes");
  // Served-only timings: reported where the workload produces samples.
  auto p50 = [&](const char* name, const std::vector<double>& v) {
    if (v.empty()) return;
    const Dist d = Summarize(v);
    std::snprintf(note, sizeof(note), "n=%zu", d.n);
    e2e->Add(name, d.p50, "ms", note);
  };
  p50("hit_ms_p50", r.hit_ms);
  p50("miss_ms_p50", r.miss_ms);
  if (!r.update_ms.empty()) {
    e2e->AddDist("update_ms", Summarize(r.update_ms), "ms");
  }
  std::snprintf(note, sizeof(note), "failed=%llu attempted=%llu",
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
  e2e->Add("failed_ratio",
           Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
           "ratio", note);
  e2e->Add("peak_rss_mb", PeakRssMb(), "MB");
  e2e->Add("bytes_per_element", r.bytes_per_element, "B");
}

void PrintMetrics(const char* title, const Report& report) {
  std::printf("--- %s\n", title);
  for (const Metric& m : report.metrics()) {
    std::printf("metric %-32s %16.6f %-12s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const Report& report) {
  std::string out = correct ? "{\"correct\": true" : "{\"correct\": false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += first ? "" : ", ";
    first = false;
    out += JsonString(m.name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  out += "}}";
  return out;
}

int Run(const Config& cfg) {
  std::unique_ptr<Workload> workload = MakeWorkload(cfg);
  namespace fs = std::filesystem;

  std::vector<double> setup_s;
  std::vector<SetupLayers> setup_layers;
  std::unique_ptr<Tracer> setup_tracer;
  std::string prev_dir;
  for (int i = 0; i < kSetups; ++i) {
    const std::string dir = cfg.workdir + "/setup" + std::to_string(i);
    fs::create_directories(dir);
    setup_tracer = std::make_unique<Tracer>(cfg.trace);
    const double t0 = NowSeconds();
    Status st = [&] {
      Tracer::Span span(setup_tracer.get(), "setup", static_cast<uint64_t>(i));
      return workload->Setup(dir, setup_tracer.get());
    }();
    setup_s.push_back(NowSeconds() - t0);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   st.ToString().c_str());
      (void)workload->Teardown();
      return 2;
    }
    setup_layers.push_back(SetupLayersOf(*setup_tracer));
    if (!prev_dir.empty()) fs::remove_all(prev_dir);
    prev_dir = dir;
  }

  std::printf("=== perfbench %s\n", cfg.workload.c_str());
  std::printf("env nproc=%u simd=%s seed=%llu seconds=%g trace=%d scale=%g "
              "setups=%d\n",
              std::thread::hardware_concurrency(), SimdDispatch().c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, cfg.scale, kSetups);
  std::printf("env");
  for (const auto& [key, value] : workload->Environment()) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n");

  // An untimed warm-up brings an idle host's CPUs to speed and settles
  // the pools before the timed phases (its outputs are still checked).
  Tracer off(false);
  Tracer on(true);
  PhaseResult warmup, plain, traced;
  Status st = workload->Measure(kWarmupSeconds, &off, &warmup);
  // End-to-end numbers always come from an untraced phase.
  if (st.ok()) {
    st = workload->Measure(cfg.trace ? cfg.seconds / 2 : cfg.seconds, &off,
                           &plain);
  }
  if (st.ok() && cfg.trace) st = workload->Measure(cfg.seconds / 2, &on, &traced);
  const PhaseResult& layer_phase = cfg.trace ? traced : plain;
  Report layer = layer_phase.layer;
  Status verdict = st.ok() ? workload->Verify(&layer) : st;
  if (!verdict.ok()) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 verdict.ToString().c_str());
  }

  Report e2e;
  AddEndToEnd(plain, Median(setup_s), &e2e);

  if (cfg.trace) {
    auto median_of = [&](double SetupLayers::*field) {
      std::vector<double> v;
      for (const SetupLayers& s : setup_layers) v.push_back(s.*field);
      return Median(v);
    };
    layer.Add("datagen.generate_s", median_of(&SetupLayers::generate_s), "s");
    layer.Add("pbitree.binarize_s", median_of(&SetupLayers::binarize_s), "s");
    layer.Add("storage.load_s", median_of(&SetupLayers::load_s), "s");
    layer.Add("storage.open_s", median_of(&SetupLayers::open_s), "s");
    const double untraced_ms = Summarize(plain.query_ms).mean;
    const double traced_ms = Summarize(traced.query_ms).mean;
    char base[96];
    std::snprintf(base, sizeof(base), "traced=%.4fms untraced=%.4fms per query",
                  traced_ms, untraced_ms);
    layer.Add("obs.trace_overhead_ratio",
              untraced_ms > 0.0 ? traced_ms / untraced_ms - 1.0 : 0.0, "ratio",
              base);

    std::printf("--- span self time (traced phase)\n");
    for (const auto& [name, t] : on.Totals()) {
      std::printf("span %-28s n=%-8llu total_ms=%-12.3f self_ms=%.3f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.self_ms);
    }
    if (!cfg.trace_out.empty()) {
      Status w = setup_tracer->WriteJsonl(cfg.trace_out, "setup", false);
      if (w.ok()) w = on.WriteJsonl(cfg.trace_out, "measure", true);
      if (!w.ok()) std::fprintf(stderr, "perfbench: %s\n", w.ToString().c_str());
    }
  }
  (void)workload->Teardown();

  PrintMetrics("end-to-end (untraced)", e2e);
  if (cfg.trace) PrintMetrics("per-layer (traced)", layer);
  std::printf("%s\n", ResultJson(verdict.ok(),
                                warmup.attempted + plain.attempted +
                                    traced.attempted,
                                warmup.failed + plain.failed + traced.failed,
                                cfg.trace ? layer : e2e)
                         .c_str());
  return verdict.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
