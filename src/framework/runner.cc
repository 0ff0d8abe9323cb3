#include "framework/runner.h"

#include <optional>

#include "common/timer.h"
#include "exec/exec_context.h"
#include "exec/partition_exec.h"
#include "join/algorithm_registry.h"
#include "pbitree/simd.h"

namespace pbitree {

StatusOr<RunResult> RunJoin(Algorithm alg, BufferManager* bm,
                          const ElementSet& a, const ElementSet& d,
                          ResultSink* sink, const RunOptions& options) {
  if (options.work_pages < 3) {
    return Status::InvalidArgument("work_pages must be >= 3");
  }
  RunResult result;
  result.algorithm = alg;

  // Per-operation metric scope: everything this run does bills to
  // `registry` and nothing else does, so interleaved operations on the
  // same DiskManager report disjoint I/O (the old global DiskStats
  // delta charged foreign traffic to whoever was being timed). A
  // caller-installed registry is reused so multi-join pipelines
  // accumulate; result.metrics is always just this run's delta.
  std::optional<obs::MetricRegistry> local_registry;
  obs::MetricRegistry* registry = obs::CurrentRegistry();
  if (registry == nullptr) {
    local_registry.emplace();
    registry = &local_registry.value();
  }
  obs::MetricScope scope(registry);

  if (options.cold_cache) {
    // Before the baseline snapshot: flushing a previous run's leftover
    // dirty pages must not be charged to this run.
    PBITREE_RETURN_IF_ERROR(bm->PurgeAll());
  }
  obs::MetricsSnapshot before = registry->Snapshot();
  Timer timer;

  // One unsegmented pair always joins serially on this thread; the
  // parallel unit is the segment (RunSegmentedJoin).
  JoinContext ctx(bm, options.work_pages);
  {
    // The SIMD override is process-global (segment tasks running on
    // pool workers must see it), so concurrent runs with conflicting
    // overrides race benignly: the kernels are exact either way, only
    // the instruction selection differs.
    std::optional<simd::ScopedEnable> simd_scope;
    if (options.simd.has_value()) simd_scope.emplace(*options.simd);
    PBITREE_RETURN_IF_ERROR(
        GetAlgorithmInfo(alg).run(&ctx, a, d, sink, options));
  }
  if (options.flush_pool) {
    // Force dirty pages out so writes are charged to this run.
    obs::ObsSpan flush_span(obs::Phase::kFlush);
    PBITREE_RETURN_IF_ERROR(bm->FlushAll());
  }

  result.wall_seconds = timer.ElapsedSeconds();

  // Fold the algorithm-internal stats in so the metrics report is
  // self-contained.
  registry->Add(obs::Counter::kJoinOutputPairs, ctx.stats.output_pairs);
  registry->Add(obs::Counter::kJoinFalseHits, ctx.stats.false_hits);
  registry->Add(obs::Counter::kJoinPartitions, ctx.stats.partitions);
  registry->Add(obs::Counter::kJoinPurgedPartitions,
                ctx.stats.purged_partitions);
  registry->Add(obs::Counter::kJoinMergedPartitions,
                ctx.stats.merged_partitions);
  registry->Add(obs::Counter::kJoinReplicatedNodes,
                ctx.stats.replicated_nodes);
  registry->Add(obs::Counter::kJoinIndexProbes, ctx.stats.index_probes);
  registry->UpdateGaugeMax(obs::Gauge::kJoinRecursionDepth,
                           ctx.stats.recursion_depth);

  obs::MetricsSnapshot after = registry->Snapshot();
  result.metrics = after.Delta(before);
  result.page_reads = result.metrics.counter(obs::Counter::kPageReads);
  result.page_writes = result.metrics.counter(obs::Counter::kPageWrites);
  result.stats = ctx.stats;
  result.output_pairs = ctx.stats.output_pairs;
  result.simulated_seconds =
      result.wall_seconds +
      options.simulated_io_ms * 1e-3 * (result.page_reads + result.page_writes);
  return result;
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
  pa.indexed = options.paths.a_interval_index != nullptr ||
               options.paths.a_start_index != nullptr;
  pd.indexed = options.paths.d_code_index != nullptr ||
               options.paths.d_start_index != nullptr;
  // ADB+ needs Start-keyed trees specifically.
  if (options.paths.a_start_index == nullptr || options.paths.d_start_index == nullptr) {
    if (pa.indexed && pd.indexed && (pa.sorted && pd.sorted)) {
      // Fall back from ADB+ to INLJN when only the INLJN-style indexes
      // exist.
      pa.sorted = pd.sorted = false;
    }
  }
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

  if (options.work_pages < 3) {
    return Status::InvalidArgument("work_pages must be >= 3");
  }
  if (options.threads < 1) {
    return Status::InvalidArgument("threads must be >= 1");
  }

  RunResult result;
  result.algorithm = alg;

  // Same registry discipline as RunJoin; the per-segment runs below
  // reuse this ambient scope, so the outer delta covers the whole
  // scatter-gather operation across every segment pool.
  std::optional<obs::MetricRegistry> local_registry;
  obs::MetricRegistry* registry = obs::CurrentRegistry();
  if (registry == nullptr) {
    local_registry.emplace();
    registry = &local_registry.value();
  }
  obs::MetricScope scope(registry);

  obs::MetricsSnapshot before = registry->Snapshot();
  Timer timer;

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
  RunOptions seg_opts = options;
  seg_opts.paths = AccessPaths{};  // store-level indexes don't cover pieces

  // Every segment task gets the full options.work_pages, serial or
  // parallel: each segment owns its pool (see exec/exec_context.h).
  auto run_segment = [&](size_t k, ResultSink* out,
                         JoinStats* stats) -> Status {
    const SegmentedSet::Segment& sa = a.segments[k];
    const SegmentedSet::Segment& sd = d.segments[k];
    // Ancestor replicas stay in the A input (the lemma needs them to
    // meet every descendant locally) but must leave the D input, or a
    // replicated descendant would emit its pairs once per covered
    // segment instead of once.
    ElementSet d_view = sd.set;
    std::optional<ElementSet> tmp;
    if (sd.has_replicas) {
      PBITREE_ASSIGN_OR_RETURN(d_view,
                               FilterSegmentReplicas(sd.bm, sd.set, k, h_cut));
      tmp = d_view;
    }
    Status st = Status::OK();
    if (d_view.num_records() > 0) {
      auto run = RunJoin(alg, sa.bm, sa.set, d_view, out, seg_opts);
      st = run.ok() ? Status::OK() : run.status();
      if (run.ok()) stats->Merge(run.value().stats);
    }
    if (tmp.has_value()) {
      Status s = tmp->file.Drop(sd.bm);
      if (st.ok()) st = s;
    }
    return st;
  };

  std::optional<ExecContext> local_exec;
  ExecContext* exec = options.shared_exec;
  if (exec == nullptr) {
    local_exec.emplace(options.threads);
    exec = &local_exec.value();
  }
  JoinContext ctx(spill_bm, options.work_pages);

  if (ShouldParallelize(exec, active.size())) {
    // Fan out one task per active segment; the fan-in replays buffered
    // pairs in segment order, so the emitted sequence equals the serial
    // loop below.
    PBITREE_RETURN_IF_ERROR(ParallelPartitions(
        exec, &ctx, sink, active.size(),
        [&](size_t i, JoinContext* worker, ResultSink* local_sink) {
          return run_segment(active[i], local_sink, &worker->stats);
        }));
  } else {
    for (size_t k : active) {
      PBITREE_RETURN_IF_ERROR(run_segment(k, sink, &ctx.stats));
    }
  }

  result.wall_seconds = timer.ElapsedSeconds();
  // The segment runs already folded their algorithm stats into the
  // registry; here we only aggregate them for the caller.
  obs::MetricsSnapshot after = registry->Snapshot();
  result.metrics = after.Delta(before);
  result.page_reads = result.metrics.counter(obs::Counter::kPageReads);
  result.page_writes = result.metrics.counter(obs::Counter::kPageWrites);
  result.stats = ctx.stats;
  result.output_pairs = ctx.stats.output_pairs;
  result.simulated_seconds =
      result.wall_seconds +
      options.simulated_io_ms * 1e-3 * (result.page_reads + result.page_writes);
  return result;
}

StatusOr<RunResult> RunSegmentedAuto(BufferManager* spill_bm,
                                     const SegmentedSet& a,
                                     const SegmentedSet& d, ResultSink* sink,
                                     const RunOptions& options) {
  InputProperties pa, pd;
  pa.sorted = a.sorted_by_start;
  pd.sorted = d.sorted_by_start;
  Algorithm alg = ChooseAlgorithm(pa, pd, a.SingleHeight());
  return RunSegmentedJoin(alg, spill_bm, a, d, sink, options);
}

}  // namespace pbitree
