#include "framework/runner.h"

#include <optional>

#include "common/timer.h"
#include "exec/partition_exec.h"
#include "exec/thread_pool.h"
#include "join/algorithm_registry.h"
#include "storage/scratch.h"

namespace pbitree {

namespace {

/// The measurement frame RunJoin and RunSegmentedJoin share. It
/// installs the run's metric scope: everything the run does bills to
/// one registry and nothing else does, so interleaved operations on the
/// same DiskManager report disjoint I/O. A caller-installed registry is
/// reused so multi-join pipelines accumulate; result.metrics is always
/// just this run's delta. `prepare` runs before the baseline snapshot
/// (a cold-cache purge must not bill earlier runs' dirty pages here);
/// `join` is timed on a JoinContext over `bm`, and the result is filled
/// from the registry delta and the context's stats.
template <typename Prepare, typename Join>
StatusOr<RunResult> MeasuredRun(Algorithm alg, BufferManager* bm,
                                const RunOptions& options,
                                const Prepare& prepare, const Join& join) {
  if (options.work_pages < 3) {
    return Status::InvalidArgument("work_pages must be >= 3");
  }
  std::optional<obs::MetricRegistry> local_registry;
  obs::MetricRegistry* registry = obs::CurrentRegistry();
  if (registry == nullptr) {
    local_registry.emplace();
    registry = &local_registry.value();
  }
  obs::MetricScope scope(registry);

  PBITREE_RETURN_IF_ERROR(prepare());
  const obs::MetricsSnapshot before = registry->Snapshot();
  Timer timer;
  JoinContext ctx(bm, options.work_pages);
  PBITREE_RETURN_IF_ERROR(join(&ctx));

  RunResult result;
  result.algorithm = alg;
  result.wall_seconds = timer.ElapsedSeconds();
  result.metrics = registry->Snapshot().Delta(before);
  result.page_reads = result.metrics.counter(obs::Counter::kPageReads);
  result.page_writes = result.metrics.counter(obs::Counter::kPageWrites);
  result.stats = ctx.stats;
  result.output_pairs = ctx.stats.output_pairs;
  result.simulated_seconds =
      result.wall_seconds +
      options.simulated_io_ms * 1e-3 * (result.page_reads + result.page_writes);
  return result;
}

}  // namespace

StatusOr<RunResult> RunJoin(Algorithm alg, BufferManager* bm,
                          const ElementSet& a, const ElementSet& d,
                          ResultSink* sink, const RunOptions& options) {
  return MeasuredRun(
      alg, bm, options,
      [&]() -> Status {
        // Flushing a previous run's leftover dirty pages must not be
        // charged to this run.
        return options.cold_cache ? bm->PurgeAll() : Status::OK();
      },
      [&](JoinContext* ctx) -> Status {
        // One unsegmented pair always joins serially on this thread;
        // the parallel unit is the segment (RunSegmentedJoin).
        PBITREE_RETURN_IF_ERROR(
            GetAlgorithmInfo(alg).run(ctx, a, d, sink, options));
        if (options.flush_pool) {
          // Force dirty pages out so writes are charged to this run.
          obs::ObsSpan flush_span(obs::Phase::kFlush);
          PBITREE_RETURN_IF_ERROR(bm->FlushAll());
        }
        // Fold the algorithm-internal stats in so the metrics report is
        // self-contained.
        const JoinStats& st = ctx->stats;
        obs::Count(obs::Counter::kJoinOutputPairs, st.output_pairs);
        obs::Count(obs::Counter::kJoinFalseHits, st.false_hits);
        obs::Count(obs::Counter::kJoinPartitions, st.partitions);
        obs::Count(obs::Counter::kJoinPurgedPartitions, st.purged_partitions);
        obs::Count(obs::Counter::kJoinMergedPartitions, st.merged_partitions);
        obs::Count(obs::Counter::kJoinReplicatedNodes, st.replicated_nodes);
        obs::Count(obs::Counter::kJoinIndexProbes, st.index_probes);
        obs::GaugeMax(obs::Gauge::kJoinRecursionDepth, st.recursion_depth);
        return Status::OK();
      });
}

const RunResult& MinRgnResult::best() const {
  const RunResult* b = &inljn;
  if (stacktree.simulated_seconds < b->simulated_seconds) b = &stacktree;
  if (adb.simulated_seconds < b->simulated_seconds) b = &adb;
  return *b;
}

StatusOr<MinRgnResult> RunMinRgn(BufferManager* bm, const ElementSet& a,
                               const ElementSet& d, const RunOptions& options) {
  MinRgnResult out;
  {
    CountingSink sink;
    PBITREE_ASSIGN_OR_RETURN(
        out.inljn, RunJoin(Algorithm::kInljn, bm, a, d, &sink, options));
  }
  {
    CountingSink sink;
    PBITREE_ASSIGN_OR_RETURN(
        out.stacktree, RunJoin(Algorithm::kStackTree, bm, a, d, &sink, options));
  }
  {
    CountingSink sink;
    PBITREE_ASSIGN_OR_RETURN(out.adb,
                             RunJoin(Algorithm::kAdb, bm, a, d, &sink, options));
  }
  return out;
}

StatusOr<RunResult> RunAuto(BufferManager* bm, const ElementSet& a,
                          const ElementSet& d, ResultSink* sink,
                          const RunOptions& options) {
  InputProperties pa, pd;
  pa.sorted = a.sorted_by_start;
  pd.sorted = d.sorted_by_start;
  Algorithm alg = ChooseAlgorithm(pa, pd, a.SingleHeight());
  return RunJoin(alg, bm, a, d, sink, options);
}

StatusOr<RunResult> RunSegmentedJoin(Algorithm alg, BufferManager* spill_bm,
                                     const SegmentedSet& a,
                                     const SegmentedSet& d, ResultSink* sink,
                                     const RunOptions& options) {
  if (a.level != d.level || a.segments.size() != d.segments.size()) {
    return Status::InvalidArgument(
        "segmented join inputs must share a segment level");
  }
  if (a.spec.height != d.spec.height) {
    return Status::InvalidArgument(
        "segmented join inputs must share a PBiTree spec");
  }
  for (size_t k = 0; k < a.segments.size(); ++k) {
    if (a.segments[k].bm != d.segments[k].bm) {
      return Status::InvalidArgument(
          "segmented join inputs must come from the same segment store");
    }
  }

  // Level 0 is one unsegmented pair: delegate outright so results and
  // page-I/O stay byte-identical to the pre-sharding path.
  if (a.level == 0) {
    if (a.segments.size() != 1) {
      return Status::InvalidArgument(
          "level-0 segmented set must carry exactly one segment");
    }
    return RunJoin(alg, a.segments[0].bm, a.segments[0].set, d.segments[0].set,
                   sink, options);
  }

  if (options.threads < 1) {
    return Status::InvalidArgument("threads must be >= 1");
  }

  // Segment pairs with records on both sides; the rest join empty.
  std::vector<size_t> active;
  for (size_t k = 0; k < a.segments.size(); ++k) {
    const SegmentedSet::Segment& sa = a.segments[k];
    const SegmentedSet::Segment& sd = d.segments[k];
    if (!sa.set.file.valid() || !sd.set.file.valid()) continue;
    if (sa.set.num_records() == 0 || sd.set.num_records() == 0) continue;
    active.push_back(k);
  }

  const int h_cut = a.cut_height();

  // Every segment task gets the full options.work_pages, serial or
  // parallel: each segment owns its pool (see exec/partition_exec.h).
  auto run_segment = [&](size_t k, ResultSink* out,
                         JoinStats* stats) -> Status {
    const SegmentedSet::Segment& sa = a.segments[k];
    const SegmentedSet::Segment& sd = d.segments[k];
    // Ancestor replicas stay in the A input (the lemma needs them to
    // meet every descendant locally) but must leave the D input, or a
    // replicated descendant would emit its pairs once per covered
    // segment instead of once.
    ElementSet d_view = sd.set;
    ScratchFile filtered;
    if (sd.has_replicas) {
      PBITREE_ASSIGN_OR_RETURN(d_view,
                               FilterSegmentReplicas(sd.bm, sd.set, k, h_cut));
      filtered = ScratchFile(sd.bm, d_view.file);
    }
    if (d_view.num_records() > 0) {
      // The per-segment runs bill into the ambient scope MeasuredRun
      // installed, so its delta covers every segment pool and their
      // folded algorithm stats.
      PBITREE_ASSIGN_OR_RETURN(
          RunResult run, RunJoin(alg, sa.bm, sa.set, d_view, out, options));
      stats->Merge(run.stats);
    }
    return filtered.Drop();
  };

  // Without a shared pool, a fan-out wider than 1 makes its own for the
  // call; it outlives the measured join so its workers join untimed.
  std::optional<ThreadPool> local_pool;
  return MeasuredRun(
      alg, spill_bm, options,
      [&]() -> Status {
        if (!options.cold_cache) return Status::OK();
        // As in RunJoin: write back earlier dirty pages before the
        // baseline snapshot, so the per-segment purges bill only this
        // run's own pages. Flushing suffices; each segment task still
        // evicts its pool, in parallel.
        for (size_t k : active) {
          PBITREE_RETURN_IF_ERROR(a.segments[k].bm->FlushAll());
        }
        return Status::OK();
      },
      [&](JoinContext* ctx) -> Status {
        ThreadPool* pool = options.shared_pool;
        if (pool == nullptr && options.threads > 1) {
          local_pool.emplace(options.threads - 1);
          pool = &local_pool.value();
        }
        if (!ShouldParallelize(pool, active.size())) {
          for (size_t k : active) {
            PBITREE_RETURN_IF_ERROR(run_segment(k, sink, &ctx->stats));
          }
          return Status::OK();
        }
        // Fan out one task per active segment; the fan-in replays
        // buffered pairs in segment order, so the emitted sequence
        // equals the serial loop above.
        return ParallelPartitions(
            pool, ctx, sink, active.size(),
            [&](size_t i, JoinContext* worker, ResultSink* local_sink) {
              return run_segment(active[i], local_sink, &worker->stats);
            });
      });
}

}  // namespace pbitree
