// Code the workloads share: the closed-loop round driver and the
// engine-layer metrics it derives from the runner's obs deltas.

#include <cstdio>
#include <numeric>

#include "pbitree/simd.h"
#include "workloads.h"

namespace perfbench {

namespace obs = pbitree::obs;
using obs::Counter;
using obs::Latency;
using obs::Phase;

void AddEngineLayers(const obs::MetricsSnapshot& m, uint64_t queries,
                     double wall_ms, double index_build_ms, Report* layer) {
  const double q = static_cast<double>(queries);
  auto per_query = [&](double v) { return Ratio(v, q); };
  auto count = [&](Counter c) { return static_cast<double>(m.counter(c)); };
  char base[128];

  layer->Add("storage.page_reads", per_query(count(Counter::kPageReads)),
             "pages/query");
  layer->Add("storage.page_writes", per_query(count(Counter::kPageWrites)),
             "pages/query");
  std::snprintf(base, sizeof(base), "hits=%.0f fetches=%.0f",
                count(Counter::kBufHits), count(Counter::kBufFetches));
  layer->Add("storage.buf_hit_ratio",
             Ratio(count(Counter::kBufHits), count(Counter::kBufFetches)),
             "ratio", base);
  layer->Add("storage.buf_evictions", per_query(count(Counter::kBufEvictions)),
             "pages/query");
  layer->Add("storage.io_wait_ms",
             per_query(LatencyTotalMs(m, Latency::kIoWait)), "ms/query");
  layer->Add("storage.latch_wait_ms",
             per_query(LatencyTotalMs(m, Latency::kLatchWait)), "ms/query");
  std::snprintf(base, sizeof(base), "hits=%.0f issued=%.0f",
                count(Counter::kBufPrefetchHits),
                count(Counter::kBufPrefetchIssued));
  layer->Add("storage.prefetch_hit_ratio",
             Ratio(count(Counter::kBufPrefetchHits),
                   count(Counter::kBufPrefetchIssued)),
             "ratio", base);

  double phase_ms = 0.0;
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    phase_ms += PhaseMs(m, static_cast<Phase>(p));
  }
  layer->Add("exec.tasks", per_query(count(Counter::kPoolTasks)),
             "tasks/query");
  std::snprintf(base, sizeof(base), "help_runs=%.0f tasks=%.0f",
                count(Counter::kPoolHelpRuns), count(Counter::kPoolTasks));
  layer->Add("exec.help_run_ratio",
             Ratio(count(Counter::kPoolHelpRuns), count(Counter::kPoolTasks)),
             "ratio", base);
  layer->Add("exec.queue_depth_max",
             static_cast<double>(m.gauge(obs::Gauge::kPoolQueueDepth)),
             "tasks");
  char phase_base[96];
  std::snprintf(phase_base, sizeof(phase_base), "phase_ms=%.3f wall_ms=%.3f",
                phase_ms, wall_ms);
  layer->Add("exec.busy_over_wall", Ratio(phase_ms, wall_ms), "ratio",
             phase_base);

  layer->Add("join.partition_ms", per_query(PhaseMs(m, Phase::kPartition)),
             "ms/query");
  layer->Add("join.build_ms", per_query(PhaseMs(m, Phase::kBuild)),
             "ms/query");
  layer->Add("join.probe_ms", per_query(PhaseMs(m, Phase::kProbe)),
             "ms/query");
  layer->Add("join.merge_ms", per_query(PhaseMs(m, Phase::kMerge)),
             "ms/query");
  layer->Add("join.replay_ms", per_query(PhaseMs(m, Phase::kReplay)),
             "ms/query");
  const double pairs = count(Counter::kJoinOutputPairs);
  const double false_hits = count(Counter::kJoinFalseHits);
  std::snprintf(base, sizeof(base), "false_hits=%.0f pairs=%.0f", false_hits,
                pairs);
  layer->Add("join.false_hit_ratio", Ratio(false_hits, pairs + false_hits),
             "ratio", base);
  layer->Add("join.partitions", per_query(count(Counter::kJoinPartitions)),
             "parts/query");
  layer->Add("join.replicated_nodes",
             per_query(count(Counter::kJoinReplicatedNodes)), "nodes/query");
  layer->Add("join.spilled_pairs",
             per_query(count(Counter::kSinkSpilledPairs)), "pairs/query");
  // Phase spans nest (a sort's merge passes count in both the sort and
  // the merge phase), so this remainder is a lower bound and can dip
  // below 0; with several workers the phase totals exceed the wall.
  layer->Add("join.unattributed_ratio",
             wall_ms > 0.0 ? 1.0 - phase_ms / wall_ms : 0.0, "ratio",
             phase_base);

  layer->Add("sort.ms", per_query(PhaseMs(m, Phase::kSort)), "ms/query");
  layer->Add("sort.runs", per_query(count(Counter::kSortRuns)), "runs/query");
  layer->Add("sort.merge_passes", per_query(count(Counter::kSortMergePasses)),
             "passes/query");
  layer->Add("index.build_ms", per_query(index_build_ms), "ms/query");
  layer->Add("index.probes", per_query(count(Counter::kJoinIndexProbes)),
             "probes/query");
}

void RunRounds(double seconds, const RoundQueries& queries, pbitree::Random* rng,
               Tracer* tracer, PhaseResult* out) {
  obs::MetricsSnapshot sum;
  double wall_ms = 0.0, index_build_ms = 0.0, plan_us = 0.0;
  pbitree::Algorithm planned = pbitree::Algorithm::kShcj;
  uint64_t next_qid = 0;
  std::vector<size_t> order(queries.count);
  std::iota(order.begin(), order.end(), size_t{0});

  // Whole rounds only, so every query appears equally often and the
  // per-query page count repeats exactly for a seed.
  const double t0 = NowSeconds();
  do {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng->Uniform(i)]);
    }
    const double round_t0 = NowSeconds();
    const uint64_t round_queries = out->queries, round_pairs = out->pairs;
    for (size_t i : order) {
      const uint64_t qid = ++next_qid;
      Tracer::Span query_span(tracer, "query", qid);
      ++out->attempted;
      {
        Tracer::Span span(tracer, "ChooseAlgorithm", qid);
        const double p0 = NowSeconds();
        planned = queries.plan(i);
        plan_us += (NowSeconds() - p0) * 1e6;
      }
      ChecksumSink sink;
      const double r0 = NowSeconds();
      pbitree::StatusOr<pbitree::RunResult> run =
          queries.run(i, qid, tracer, &sink);
      const double ms = (NowSeconds() - r0) * 1e3;
      if (!run.ok()) {
        ++out->failed;
        std::fprintf(stderr, "%s failed: %s\n", queries.name(i).c_str(),
                     run.status().ToString().c_str());
        continue;
      }
      queries.done(i, qid, tracer, sink.digest());
      out->query_ms.push_back(ms);
      ++out->queries;
      out->pairs += run->output_pairs;
      out->pages += run->TotalIO();
      Accumulate(&sum, run->metrics);
      wall_ms += run->wall_seconds * 1e3;
      index_build_ms += run->stats.index_build_seconds * 1e3;
    }
    const double round_s = NowSeconds() - round_t0;
    out->round_queries_per_s.push_back(
        static_cast<double>(out->queries - round_queries) / round_s);
    out->round_pairs_per_s.push_back(
        static_cast<double>(out->pairs - round_pairs) / round_s);
  } while (NowSeconds() - t0 < seconds);
  out->wall_s = NowSeconds() - t0;

  AddEngineLayers(sum, out->queries, wall_ms, index_build_ms, &out->layer);
  out->layer.Add("framework.plan_us",
                 Ratio(plan_us, static_cast<double>(out->queries)), "us/query",
                 std::string("last plan ") + pbitree::AlgorithmName(planned));
}

std::string SimdDispatch() {
  return pbitree::simd::Enabled() ? "AVX2" : "scalar";
}

}  // namespace perfbench
