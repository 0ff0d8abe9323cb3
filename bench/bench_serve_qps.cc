// Multi-client load generator for pbitree_serverd: sweeps the client
// count and reports QPS plus p50/p99 query latency from the obs
// latency histograms (Latency::kServeQuery, recorded client-side
// around each request so the numbers include the wire).
//
// Two modes:
//   - external: PBITREE_SERVE_ADDR=host:port points at a running
//     daemon (what the CI smoke job does). The join tags come from
//     PBITREE_SERVE_TAGS="anc,desc" or default to the first two sets
//     of the server's catalog listing.
//   - self-host (default): builds a synthetic catalog on the in-memory
//     backend, starts a Server on an ephemeral port in-process, and
//     load-generates against it — no setup required.
//
// Extra knobs on top of bench_common.h:
//   PBITREE_BENCH_QUERIES  (default 16): queries per client per point.
//   PBITREE_BENCH_JSON     (default BENCH_serve_qps.json).
//
// Admission rejections (kResourceExhausted) are counted, not retried;
// a rejected request still costs a round trip but completes no join.

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "datagen/synthetic.h"
#include "join/result_sink.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "storage/catalog.h"

namespace pbitree {
namespace bench {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Point {
  size_t clients = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t pairs = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;

  double Qps() const { return seconds > 0 ? completed / seconds : 0.0; }
};

struct Target {
  std::string host;
  int port = 0;
  std::string a_tag;
  std::string d_tag;
};

[[noreturn]] void Die(const char* what, const Status& st) {
  std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

/// One sweep point: `clients` threads, each its own connection, each
/// issuing `queries` joins back-to-back. Latencies bill into `reg`.
Point RunPoint(const Target& t, size_t clients, uint64_t queries,
               obs::MetricRegistry* reg) {
  Point p;
  p.clients = clients;
  std::vector<std::thread> threads;
  std::vector<Point> locals(clients);
  const obs::MetricsSnapshot before = reg->Snapshot();
  const double t0 = NowSeconds();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      obs::MetricScope scope(reg);
      serve::Client client;
      if (Status st = client.Connect(t.host, t.port); !st.ok()) {
        Die("connect", st);
      }
      for (uint64_t q = 0; q < queries; ++q) {
        obs::LatencyTimer timer(obs::Latency::kServeQuery);
        CountingSink sink;
        auto summary = client.Join(t.a_tag, t.d_tag, "auto", &sink);
        timer.Finish();
        if (!summary.ok()) {
          if (summary.status().code() == StatusCode::kResourceExhausted) {
            ++locals[c].rejected;
            continue;
          }
          Die("join", summary.status());
        }
        ++locals[c].completed;
        locals[c].pairs += summary->pairs;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  p.seconds = NowSeconds() - t0;
  for (const Point& l : locals) {
    p.completed += l.completed;
    p.rejected += l.rejected;
    p.pairs += l.pairs;
  }
  const obs::MetricsSnapshot delta = reg->Snapshot().Delta(before);
  const obs::HistogramStat& hist =
      delta.latencies[static_cast<size_t>(obs::Latency::kServeQuery)];
  p.p50_ms = hist.QuantileUpperBoundNanos(0.50) / 1e6;
  p.p99_ms = hist.QuantileUpperBoundNanos(0.99) / 1e6;
  return p;
}

void WriteJson(const std::string& path, const std::string& mode,
               const std::vector<Point>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"serve_qps\",\n  \"mode\": \"%s\",\n",
               mode.c_str());
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"clients\": %zu, \"completed\": %llu, "
                 "\"rejected\": %llu, \"pairs\": %llu, \"seconds\": %.4f, "
                 "\"qps\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 p.clients, static_cast<unsigned long long>(p.completed),
                 static_cast<unsigned long long>(p.rejected),
                 static_cast<unsigned long long>(p.pairs), p.seconds, p.Qps(),
                 p.p50_ms, p.p99_ms, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// External mode: resolve the join tags from the daemon's catalog when
/// PBITREE_SERVE_TAGS is not set.
Target ExternalTarget(const std::string& addr) {
  Target t;
  if (Status st = serve::ParseHostPort(addr, &t.host, &t.port); !st.ok()) {
    Die("PBITREE_SERVE_ADDR", st);
  }
  if (const char* tags = std::getenv("PBITREE_SERVE_TAGS");
      tags != nullptr && std::string(tags).find(',') != std::string::npos) {
    const std::string spec = tags;
    t.a_tag = spec.substr(0, spec.find(','));
    t.d_tag = spec.substr(spec.find(',') + 1);
    return t;
  }
  serve::Client probe;
  if (Status st = probe.Connect(t.host, t.port); !st.ok()) Die("connect", st);
  auto listing = probe.List();
  if (!listing.ok()) Die("list", listing.status());
  std::vector<std::string> names;
  size_t pos = 0;
  while (pos < listing->size()) {
    size_t nl = listing->find('\n', pos);
    if (nl == std::string::npos) nl = listing->size();
    std::string line = listing->substr(pos, nl - pos);
    pos = nl + 1;
    size_t sp = line.find(' ');
    if (sp != std::string::npos && sp > 0) names.push_back(line.substr(0, sp));
  }
  if (names.size() < 2) {
    std::fprintf(stderr, "server catalog has %zu sets; need 2 to join "
                 "(set PBITREE_SERVE_TAGS=anc,desc)\n", names.size());
    std::exit(1);
  }
  t.a_tag = names[0];
  t.d_tag = names[1];
  return t;
}

int Run() {
  BenchConfig cfg = BenchConfig::FromEnv();
  const uint64_t queries = static_cast<uint64_t>(
      EnvInt64Checked("PBITREE_BENCH_QUERIES", 16, 1, 1 << 20));
  const char* json_env = std::getenv("PBITREE_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_serve_qps.json";
  const char* addr = std::getenv("PBITREE_SERVE_ADDR");
  const std::string mode = addr != nullptr ? "external" : "self-host";

  // Self-host mode keeps these alive for the duration of the sweep.
  std::optional<Env> env;
  std::optional<serve::Server> server;
  Target target;
  if (addr != nullptr) {
    target = ExternalTarget(addr);
  } else {
    env.emplace(cfg.DefaultBufferPages());
    SyntheticSpec spec;
    spec.a_count = static_cast<uint64_t>(1e5 * cfg.scale);
    spec.d_count = static_cast<uint64_t>(1e5 * cfg.scale);
    spec.a_heights = {10};
    spec.d_heights = {2};
    spec.match_fraction = 0.1;
    spec.seed = cfg.seed;
    auto ds = GenerateSynthetic(env->bm.get(), spec);
    if (!ds.ok()) Die("generate", ds.status());
    Catalog catalog;
    if (Status st = catalog.Put("anc", ds->a); !st.ok()) Die("put", st);
    if (Status st = catalog.Put("desc", ds->d); !st.ok()) Die("put", st);
    serve::ServeConfig scfg;
    scfg.port = 0;  // ephemeral
    scfg.max_concurrent = 4;
    scfg.queue_depth = 64;
    scfg.work_pages = cfg.DefaultBufferPages() / 2;
    server.emplace(env->bm.get(), std::move(catalog), scfg);
    if (Status st = server->Start(); !st.ok()) Die("server start", st);
    target.host = "127.0.0.1";
    target.port = server->port();
    target.a_tag = "anc";
    target.d_tag = "desc";
  }

  std::printf("=== serve QPS sweep (%s %s:%d, join %s//%s, %llu "
              "queries/client) ===\n",
              mode.c_str(), target.host.c_str(), target.port,
              target.a_tag.c_str(), target.d_tag.c_str(),
              static_cast<unsigned long long>(queries));
  std::printf("%8s %10s %10s %10s %10s %10s\n", "clients", "qps", "p50(ms)",
              "p99(ms)", "rejected", "pairs");
  PrintRule(64);

  obs::MetricRegistry reg;
  std::vector<Point> points;
  for (size_t clients : {1u, 2u, 4u}) {
    Point p = RunPoint(target, clients, queries, &reg);
    std::printf("%8zu %10.1f %10.3f %10.3f %10llu %10llu\n", p.clients,
                p.Qps(), p.p50_ms, p.p99_ms,
                static_cast<unsigned long long>(p.rejected),
                static_cast<unsigned long long>(p.pairs));
    points.push_back(p);
  }

  WriteJson(json_path, mode, points);
  std::printf("\nresults -> %s\n", json_path.c_str());

  if (server.has_value()) {
    if (Status st = server->Shutdown(); !st.ok()) Die("shutdown", st);
  }
  if (points.size() >= 3 && points.back().Qps() + 1e-9 < points.front().Qps()) {
    // Report (don't fail): concurrent clients should at least match the
    // single-client rate on a warm server.
    std::printf("note: 4-client QPS (%.1f) below 1-client QPS (%.1f)\n",
                points.back().Qps(), points.front().Qps());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pbitree

int main() { return pbitree::bench::Run(); }
