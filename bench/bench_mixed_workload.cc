// Mixed read/write workload against the mutable serving layer: sweeps
// the update rate (0%, 1%, 10% of operations are committed inserts or
// deletes) and reports join QPS, cache hit rate and query latency for
// each point — the cost of epoch churn on the epoch-keyed result
// cache. At 0% every repeat query after the first is a cache hit; as
// the update rate grows, each commit bumps the epoch and invalidates,
// so the hit rate decays and joins pay the full execution again.
//
// Self-hosted: builds a synthetic catalog on the in-memory backend,
// saves it, opens an ElementSetStore over the same pool, attaches it
// to an in-process Server and drives the workload over the wire.
//
// Correctness gate (aborts on violation): within one snapshot epoch,
// every join reply must report exactly the same pair count — a cache
// hit must be indistinguishable from the uncached execution it
// memoised.
//
// Extra knobs on top of bench_common.h:
//   PBITREE_BENCH_OPS   (default 240): operations per sweep point.
//   PBITREE_BENCH_JSON  (default BENCH_mixed_workload.json).

#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "common/random.h"
#include "datagen/synthetic.h"
#include "join/result_sink.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "storage/catalog.h"
#include "storage/element_store.h"

namespace pbitree {
namespace bench {
namespace {

[[noreturn]] void Die(const char* what, const Status& st) {
  std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Point {
  int update_permille = 0;
  uint64_t joins = 0;
  uint64_t updates = 0;
  uint64_t slack_exhausted = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;

  double JoinQps() const { return seconds > 0 ? joins / seconds : 0.0; }
  double HitRate() const {
    uint64_t lookups = cache_hits + cache_misses;
    return lookups > 0 ? static_cast<double>(cache_hits) / lookups : 0.0;
  }
};

/// One sweep point: `ops` operations, `update_permille`/1000 of them
/// mutations (alternating inserts under the ancestor root and deletes
/// of previously inserted elements, so the set size stays bounded).
Point RunPoint(serve::Server* server, int port, Code insert_parent,
               int update_permille, uint64_t ops, uint64_t seed,
               obs::MetricRegistry* reg) {
  Point p;
  p.update_permille = update_permille;

  serve::Client client;
  if (Status st = client.Connect("127.0.0.1", port); !st.ok()) {
    Die("connect", st);
  }

  // The parity ledger: pair count every join at each epoch reported.
  auto epoch = client.Epoch();
  if (!epoch.ok()) Die("epoch", epoch.status());
  uint64_t cur_epoch = *epoch;
  std::map<uint64_t, uint64_t> pairs_at_epoch;

  Random rng(seed);
  std::deque<Code> inserted;
  const obs::MetricsSnapshot before = server->registry()->Snapshot();
  const obs::MetricsSnapshot lat_before = reg->Snapshot();
  obs::MetricScope scope(reg);
  const double t0 = NowSeconds();
  for (uint64_t i = 0; i < ops; ++i) {
    const bool update = rng.Uniform(1000) < static_cast<uint64_t>(update_permille);
    if (update) {
      if (inserted.size() >= 8 || (!inserted.empty() && rng.Uniform(2) == 0)) {
        auto res = client.DeleteElement("desc", inserted.front());
        if (!res.ok()) Die("delete", res.status());
        inserted.pop_front();
        cur_epoch = res->epoch;
      } else {
        auto res = client.InsertChild("desc", insert_parent, 0,
                                      90000 + static_cast<uint32_t>(i));
        if (res.ok()) {
          inserted.push_back(res->code);
          cur_epoch = res->epoch;
        } else if (res.status().IsSlackExhausted()) {
          ++p.slack_exhausted;  // subtree packed; workload carries on
        } else {
          Die("insert", res.status());
        }
      }
      ++p.updates;
      continue;
    }
    obs::LatencyTimer timer(obs::Latency::kServeQuery);
    CountingSink sink;
    auto summary = client.Join("anc", "desc", "auto", &sink);
    timer.Finish();
    if (!summary.ok()) Die("join", summary.status());
    ++p.joins;
    auto [it, first] = pairs_at_epoch.emplace(cur_epoch, summary->pairs);
    if (!first && it->second != summary->pairs) {
      std::fprintf(stderr,
                   "cache parity violation at epoch %llu: %llu pairs vs "
                   "%llu earlier\n",
                   static_cast<unsigned long long>(cur_epoch),
                   static_cast<unsigned long long>(summary->pairs),
                   static_cast<unsigned long long>(it->second));
      std::exit(1);
    }
  }
  p.seconds = NowSeconds() - t0;

  const obs::MetricsSnapshot sdelta = server->registry()->Snapshot().Delta(before);
  p.cache_hits = sdelta.counter(obs::Counter::kServeCacheHits);
  p.cache_misses = sdelta.counter(obs::Counter::kServeCacheMisses);
  const obs::MetricsSnapshot ldelta = reg->Snapshot().Delta(lat_before);
  const obs::HistogramStat& hist =
      ldelta.latencies[static_cast<size_t>(obs::Latency::kServeQuery)];
  p.p50_ms = hist.QuantileUpperBoundNanos(0.50) / 1e6;
  p.p99_ms = hist.QuantileUpperBoundNanos(0.99) / 1e6;

  // Leave the store as we found it so the next point starts clean.
  while (!inserted.empty()) {
    auto res = client.DeleteElement("desc", inserted.front());
    if (!res.ok()) Die("cleanup delete", res.status());
    inserted.pop_front();
  }
  return p;
}

void WriteJson(const std::string& path, const std::vector<Point>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"mixed_workload\",\n  \"results\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(
        f,
        "    {\"update_permille\": %d, \"joins\": %llu, \"updates\": %llu, "
        "\"slack_exhausted\": %llu, \"join_qps\": %.2f, \"cache_hits\": %llu, "
        "\"cache_misses\": %llu, \"hit_rate\": %.4f, \"seconds\": %.4f, "
        "\"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
        p.update_permille, static_cast<unsigned long long>(p.joins),
        static_cast<unsigned long long>(p.updates),
        static_cast<unsigned long long>(p.slack_exhausted), p.JoinQps(),
        static_cast<unsigned long long>(p.cache_hits),
        static_cast<unsigned long long>(p.cache_misses), p.HitRate(),
        p.seconds, p.p50_ms, p.p99_ms, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Run() {
  BenchConfig cfg = BenchConfig::FromEnv();
  const uint64_t ops = static_cast<uint64_t>(
      EnvInt64Checked("PBITREE_BENCH_OPS", 240, 1, 1 << 20));
  const char* json_env = std::getenv("PBITREE_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_mixed_workload.json";

  Env env(cfg.DefaultBufferPages());
  SyntheticSpec spec;
  spec.a_count = static_cast<uint64_t>(5e4 * cfg.scale);
  spec.d_count = static_cast<uint64_t>(5e4 * cfg.scale);
  spec.a_heights = {10};
  spec.d_heights = {2};
  spec.match_fraction = 0.1;
  spec.seed = cfg.seed;
  auto ds = GenerateSynthetic(env.bm.get(), spec);
  if (!ds.ok()) Die("generate", ds.status());

  // The mutable path reads its sets through the store, so the catalog
  // must be durable before the store opens.
  auto catalog = Catalog::Load(env.bm.get());
  if (!catalog.ok()) Die("catalog", catalog.status());
  if (Status st = catalog->Put("anc", ds->a); !st.ok()) Die("put", st);
  if (Status st = catalog->Put("desc", ds->d); !st.ok()) Die("put", st);
  if (Status st = catalog->Save(env.bm.get()); !st.ok()) Die("save", st);

  auto estore = ElementSetStore::Open(env.bm.get());
  if (!estore.ok()) Die("element store", estore.status());

  serve::ServeConfig scfg;
  scfg.port = 0;  // ephemeral
  scfg.max_concurrent = 2;
  scfg.queue_depth = 32;
  scfg.work_pages = cfg.DefaultBufferPages() / 2;
  serve::Server server(env.bm.get(), *catalog, scfg);
  server.AttachElementStore(estore->get());
  if (Status st = server.Start(); !st.ok()) Die("server start", st);

  // New elements go under the ancestor root so every insert changes
  // the join result (worst case for the cache).
  const Code insert_parent = ds->a.spec.RootCode();

  std::printf("=== mixed workload sweep (%llu ops/point, %llu+%llu elements) "
              "===\n",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(spec.a_count),
              static_cast<unsigned long long>(spec.d_count));
  std::printf("%10s %10s %10s %10s %10s %10s %10s\n", "upd/1000", "join_qps",
              "hit_rate", "hits", "misses", "p50(ms)", "p99(ms)");
  PrintRule(76);

  obs::MetricRegistry reg;
  std::vector<Point> points;
  for (int permille : {0, 10, 100}) {
    Point p = RunPoint(&server, server.port(), insert_parent, permille, ops,
                       cfg.seed + static_cast<uint64_t>(permille), &reg);
    std::printf("%10d %10.1f %10.3f %10llu %10llu %10.3f %10.3f\n",
                p.update_permille, p.JoinQps(), p.HitRate(),
                static_cast<unsigned long long>(p.cache_hits),
                static_cast<unsigned long long>(p.cache_misses), p.p50_ms,
                p.p99_ms);
    points.push_back(p);
  }

  WriteJson(json_path, points);
  std::printf("\nresults -> %s\n", json_path.c_str());

  if (Status st = server.Shutdown(); !st.ok()) Die("shutdown", st);

  // Sanity gates: the read-only point must be cache-dominated, and
  // updates must actually have invalidated.
  const Point& readonly = points.front();
  if (readonly.cache_hits == 0) {
    std::fprintf(stderr, "read-only point recorded no cache hits\n");
    return 1;
  }
  if (points.back().cache_misses <= readonly.cache_misses) {
    std::fprintf(stderr, "update churn did not increase cache misses\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pbitree

int main() { return pbitree::bench::Run(); }
