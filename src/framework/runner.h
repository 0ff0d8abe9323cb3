#ifndef PBITREE_FRAMEWORK_RUNNER_H_
#define PBITREE_FRAMEWORK_RUNNER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "framework/planner.h"
#include "join/element_set.h"
#include "join/join_context.h"
#include "join/mhcj_rollup.h"
#include "join/result_sink.h"
#include "join/segmented_set.h"
#include "join/vpj.h"
#include "obs/metrics.h"

namespace pbitree {

class ThreadPool;

/// \brief Configuration for one measured join execution.
struct RunOptions {
  /// The paper's b: buffer pages the algorithm may use for working
  /// storage. Must not exceed the buffer pool size.
  size_t work_pages = 500;

  /// Width of the segment fan-out (src/exec/): how many segment pairs
  /// of a segmented join (RunSegmentedJoin, level >= 1) run at once.
  /// `work_pages` applies to each segment task, so peak working memory
  /// is `threads × work_pages` by design, and page I/O and result order
  /// equal the serial segment loop's at any width. RunJoin over one
  /// unsegmented pair is always serial and ignores this field.
  size_t threads = 1;

  /// Borrowed worker pool shared across runs — the serve daemon's. When
  /// set, `threads` is ignored and a segmented join schedules its
  /// segment tasks on this pool, so N concurrent queries share one pool
  /// instead of each spawning their own (no thread oversubscription).
  /// Unset, a segmented join at `threads` > 1 makes its own pool of
  /// `threads - 1` workers for the call. The caller keeps ownership and
  /// must keep the pool alive for the duration of the run.
  ThreadPool* shared_pool = nullptr;

  /// Flush dirty pool pages after the run so their writes are charged
  /// to it — the measurement protocol of the benchmarks. The serve
  /// daemon disables this: FlushAll is a pool-wide phase operation that
  /// must not run while concurrent queries hold pins, and the daemon's
  /// durability point is the shutdown Sync barrier instead.
  bool flush_pool = true;

  /// Per-page simulated disk latency in milliseconds, added to the wall
  /// time to produce `simulated_seconds`. The paper's numbers are
  /// disk-bound on 2002 hardware; counted page I/O times a fixed
  /// latency reproduces that regime machine-independently. 0 disables.
  double simulated_io_ms = 0.0;

  /// Purge the buffer pool before the run (cold cache), reproducing the
  /// paper's raw-disk protocol where no algorithm benefits from pages a
  /// previous run left behind. Benchmarks enable this.
  bool cold_cache = false;

  RollupHeightPolicy rollup_policy = RollupHeightPolicy::kMax;
  VpjOptions vpj;
};

/// \brief Measured outcome of one join execution.
struct RunResult {
  Algorithm algorithm = Algorithm::kShcj;
  JoinStats stats;
  uint64_t output_pairs = 0;
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  double wall_seconds = 0.0;
  /// wall_seconds + simulated_io_ms * (reads + writes) / 1000.
  double simulated_seconds = 0.0;
  /// Full per-operation metrics (counters, phase spans, wait
  /// histograms), attributed through the run's registry scope —
  /// everything this run caused and nothing anyone else did.
  /// `page_reads`/`page_writes` above are copies of its I/O counters.
  obs::MetricsSnapshot metrics;

  uint64_t TotalIO() const { return page_reads + page_writes; }
};

/// \brief Runs `alg` on (a, d), materialising any missing prerequisite
/// (sorted copy, index) on the fly and charging it to the measurement —
/// exactly the experimental protocol of Section 4.
///
/// The join runs serially on the calling thread. I/O and event counts
/// come from a per-operation obs::MetricRegistry scope installed for
/// the duration of the call, so concurrent traffic on the same
/// DiskManager is never billed to this run; wall time includes
/// preparation. Temporary files and indexes are dropped before return.
/// When the caller already has a registry scope installed (a query
/// pipeline accumulating several joins), the run bills into it and
/// `result.metrics` is the delta this run contributed.
StatusOr<RunResult> RunJoin(Algorithm alg, BufferManager* bm,
                          const ElementSet& a, const ElementSet& d,
                          ResultSink* sink, const RunOptions& options);

/// \brief The paper's MIN_RGN: runs INLJN, STACKTREE and ADB+ (each in
/// naive on-the-fly mode) and reports all three plus the best.
struct MinRgnResult {
  RunResult inljn;
  RunResult stacktree;
  RunResult adb;
  /// The minimum by simulated time — what Table 2(e) calls MIN_RGN.
  const RunResult& best() const;
};

StatusOr<MinRgnResult> RunMinRgn(BufferManager* bm, const ElementSet& a,
                               const ElementSet& d, const RunOptions& options);

/// Framework entry point: picks the algorithm per Table 1 from the sets'
/// sortedness and height profile, then runs it. Stored sets carry no
/// index, so the indexed rows of Table 1 never apply here.
StatusOr<RunResult> RunAuto(BufferManager* bm, const ElementSet& a,
                          const ElementSet& d, ResultSink* sink,
                          const RunOptions& options);

/// \brief Scatter-gather execution over a code-space-sharded pair: the
/// join runs independently on each matching segment pair (segment k of
/// A against segment k of D — the VPJ lemma guarantees no cross-segment
/// pair exists). With `threads` > 1 (or a shared pool) the segment
/// pairs run as pool tasks and merge through the ParallelPartitions
/// order-preserving fan-in, so the emitted sequence equals the serial
/// segment-order concatenation. Every segment task gets the full
/// `work_pages`, so page I/O equals the serial loop's (the budget rule
/// of exec/partition_exec.h).
///
/// Both sets must come from the same SegmentStore (matching level and
/// per-segment pools). Ancestor replicas stay in the A input (the lemma
/// needs them) but are filtered from the D input of each segment, so
/// every result pair is produced exactly once. `spill_bm` (normally the
/// store's main pool) serves the fan-in's spill files. Level 0 is
/// delegated to RunJoin unchanged — byte-identical results and page-I/O
/// to the unsegmented layout.
StatusOr<RunResult> RunSegmentedJoin(Algorithm alg, BufferManager* spill_bm,
                                     const SegmentedSet& a,
                                     const SegmentedSet& d, ResultSink* sink,
                                     const RunOptions& options);

}  // namespace pbitree

#endif  // PBITREE_FRAMEWORK_RUNNER_H_
