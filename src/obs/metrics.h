#ifndef PBITREE_OBS_METRICS_H_
#define PBITREE_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pbitree {
namespace obs {

/// \brief Low-overhead per-operation observability: a MetricRegistry of
/// counters, gauges, phase timers and latency histograms, attributed to
/// the *operation* that caused the work rather than to the process.
///
/// Design constraints (this sits under every page I/O):
///  - The hot path is one thread-local lookup plus one uncontended
///    relaxed atomic increment into a per-thread shard; shards are only
///    merged when somebody reads a snapshot.
///  - Attribution is scope-based: an operation installs a MetricScope
///    (thread-local current-registry pointer) and every instrumented
///    event on that thread — and, via the ThreadPool's task wrappers,
///    on every pool worker executing that operation's tasks — bills to
///    it. Two operations interleaving on the same DiskManager therefore
///    report disjoint I/O, which the old global-delta accounting could
///    not do.
///  - With no scope installed every hook is a null-check and nothing
///    else, so library code outside a measured run stays unperturbed.

/// Monotonic event counters. The enum is the schema: names (see
/// CounterName) are stable and every counter appears in the JSON
/// report, so downstream tooling can rely on the key set.
enum class Counter : uint32_t {
  // DiskManager physical page I/O (the paper's primary cost metric).
  kPageReads = 0,
  kPageWrites,
  kPagesAllocated,
  kPagesFreed,
  // BufferManager pool traffic.
  kBufFetches,
  kBufHits,
  kBufMisses,
  kBufEvictions,
  kBufDirtyWrites,
  // ExternalSort structure.
  kSortRuns,
  kSortMergePasses,
  // BufferingSink spill-file lifecycle.
  kSinkSpills,
  kSinkSpilledPairs,
  // ThreadPool execution.
  kPoolTasks,
  kPoolHelpRuns,
  // JoinStats fed in bulk by the framework runner.
  kJoinOutputPairs,
  kJoinFalseHits,
  kJoinPartitions,
  kJoinPurgedPartitions,
  kJoinMergedPartitions,
  kJoinReplicatedNodes,
  kJoinIndexProbes,

  // Storage fault-tolerance layer (see storage/io_backend.h).
  kIoRetries,           // extra backend attempts beyond the first
  kIoChecksumFailures,  // page reads rejected by CRC32C verification
  kIoFaultsInjected,    // faults a FaultInjectingBackend delivered

  // Serving layer (see serve/server.h).
  kServeQueries,   // queries admitted and executed by the daemon
  kServeRejected,  // queries refused by admission control (queue full)
  kCatalogLoads,   // Catalog::Load calls — a warm server stays at 1

  // Buffer-pool prefetch. The pool reads synchronously, so both are
  // always 0; they stay only because the benchmark's
  // storage.prefetch_hit_ratio reads them, until a benchmark change
  // drops that metric.
  kBufPrefetchIssued,
  kBufPrefetchHits,

  // Serve-layer result cache (see serve/result_cache.h).
  kServeCacheHits,       // joins answered from a cached result
  kServeCacheMisses,     // joins that had to execute (cache on, no entry)
  kServeCacheEvictions,  // entries evicted by the byte budget
};
inline constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kServeCacheEvictions) + 1;

/// High-water marks, merged by max across shards and over time.
enum class Gauge : uint32_t {
  kPoolQueueDepth = 0,
  kJoinRecursionDepth,
  kServeQueueDepth,  // admission-queue high-water mark
  kServeCacheBytes,  // result-cache resident-byte high-water mark
};
inline constexpr size_t kNumGauges =
    static_cast<size_t>(Gauge::kServeCacheBytes) + 1;

/// Phases an ObsSpan can be scoped to. Totals sum across workers (a
/// CPU-time-like aggregate), max is the longest single span (the
/// critical-path contribution of the phase).
enum class Phase : uint32_t {
  kPartition = 0,
  kBuild,
  kProbe,
  kSort,
  kMerge,
  kFlush,
  kReplay,
};
inline constexpr size_t kNumPhases = static_cast<size_t>(Phase::kReplay) + 1;

/// Latency histogram kinds (log2-bucketed nanoseconds).
enum class Latency : uint32_t {
  kIoWait = 0,      // time blocked on page I/O: the synchronous transfer
                    // of a buffer-pool miss, waits on in-flight frames,
                    // and waits for async I/O completions
  kLatchWait,       // buffer-pool latch acquisition on the fetch path
  kServeQueueWait,  // time a query spent queued behind admission control
  kServeQuery,      // end-to-end per-query service time (p50/p99 source)
};
inline constexpr size_t kNumLatencies =
    static_cast<size_t>(Latency::kServeQuery) + 1;

/// Log2 nanosecond buckets: bucket 0 holds [0, 1) us-ish (0 or 1 ns),
/// bucket i holds durations whose bit width is i. 48 buckets cover
/// ~3 days; everything larger clamps into the last bucket.
inline constexpr size_t kHistBuckets = 48;

const char* CounterName(Counter c);
const char* GaugeName(Gauge g);
const char* PhaseName(Phase p);
const char* LatencyName(Latency l);

struct PhaseStat {
  uint64_t count = 0;
  uint64_t total_nanos = 0;
  uint64_t max_nanos = 0;
};

struct HistogramStat {
  uint64_t count = 0;
  uint64_t total_nanos = 0;
  uint64_t buckets[kHistBuckets] = {};

  /// Upper bound (in nanoseconds) of the bucket holding quantile `q`
  /// (0 < q <= 1); 0 when the histogram is empty.
  uint64_t QuantileUpperBoundNanos(double q) const;
};

/// \brief Plain merged view of a registry — what reports are built from.
struct MetricsSnapshot {
  uint64_t counters[kNumCounters] = {};
  uint64_t gauges[kNumGauges] = {};
  PhaseStat phases[kNumPhases] = {};
  HistogramStat latencies[kNumLatencies] = {};

  uint64_t counter(Counter c) const {
    return counters[static_cast<size_t>(c)];
  }
  uint64_t gauge(Gauge g) const { return gauges[static_cast<size_t>(g)]; }
  const PhaseStat& phase(Phase p) const {
    return phases[static_cast<size_t>(p)];
  }

  /// Counter/phase/histogram-wise `this - before` for delta accounting
  /// against a reused registry. Gauges and phase maxima keep this
  /// snapshot's value (a high-water mark has no meaningful difference).
  MetricsSnapshot Delta(const MetricsSnapshot& before) const;

  /// Schema-stable JSON object: every counter, gauge, phase and latency
  /// key is always present, in enum order, with fixed formatting —
  /// identical inputs serialize byte-identically.
  std::string ToJson() const;
};

/// \brief The per-operation metric store. See file comment for the
/// sharding and scoping model. Thread-safe; cheap enough to create one
/// per measured operation.
class MetricRegistry {
 public:
  /// One per-thread slab of atomics. Public only so the thread-local
  /// shard cache in metrics.cc can name it; not part of the API.
  struct Shard {
    std::atomic<uint64_t> counters[kNumCounters] = {};
    std::atomic<uint64_t> gauges[kNumGauges] = {};
    std::atomic<uint64_t> phase_count[kNumPhases] = {};
    std::atomic<uint64_t> phase_total[kNumPhases] = {};
    std::atomic<uint64_t> phase_max[kNumPhases] = {};
    std::atomic<uint64_t> lat_count[kNumLatencies] = {};
    std::atomic<uint64_t> lat_total[kNumLatencies] = {};
    std::atomic<uint64_t> lat_buckets[kNumLatencies][kHistBuckets] = {};
  };

  MetricRegistry();
  ~MetricRegistry();

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  void Add(Counter c, uint64_t delta = 1) {
    LocalShard()->counters[static_cast<size_t>(c)].fetch_add(
        delta, std::memory_order_relaxed);
  }
  void UpdateGaugeMax(Gauge g, uint64_t value);
  void RecordPhase(Phase p, uint64_t nanos);
  void RecordLatency(Latency l, uint64_t nanos);

  /// Merges every shard into a consistent-enough point-in-time view
  /// (relaxed reads; exact once the operation's threads are quiescent,
  /// which is when snapshots are taken).
  MetricsSnapshot Snapshot() const;

 private:
  Shard* LocalShard();

  const uint64_t id_;  // process-unique, keys the thread-local cache
  mutable std::mutex mu_;
  std::vector<std::pair<std::thread::id, std::unique_ptr<Shard>>> shards_;
};

namespace internal {
extern thread_local MetricRegistry* current_registry;
}  // namespace internal

/// The registry the current thread bills to, or null outside any scope.
inline MetricRegistry* CurrentRegistry() {
  return internal::current_registry;
}

/// \brief RAII scope installing `registry` as the current thread's
/// billing target (null clears it — tasks must not inherit a stale
/// scope from their worker thread). Restores the previous scope on
/// destruction, so scopes nest.
class MetricScope {
 public:
  explicit MetricScope(MetricRegistry* registry)
      : prev_(internal::current_registry) {
    internal::current_registry = registry;
  }
  ~MetricScope() { internal::current_registry = prev_; }

  MetricScope(const MetricScope&) = delete;
  MetricScope& operator=(const MetricScope&) = delete;

 private:
  MetricRegistry* prev_;
};

/// Free-function hooks: no-ops (one TLS load + branch) with no scope.
inline void Count(Counter c, uint64_t delta = 1) {
  if (MetricRegistry* r = CurrentRegistry()) r->Add(c, delta);
}
inline void GaugeMax(Gauge g, uint64_t value) {
  if (MetricRegistry* r = CurrentRegistry()) r->UpdateGaugeMax(g, value);
}

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// \brief Phase-scoped trace span: records its lifetime into the
/// current registry's phase timers. Captures the registry at
/// construction, so the span survives scope churn inside its body.
/// Costs two clock reads when a registry is active, nothing otherwise.
class ObsSpan {
 public:
  explicit ObsSpan(Phase phase) : reg_(CurrentRegistry()), phase_(phase) {
    if (reg_ != nullptr) start_ = NowNanos();
  }
  ~ObsSpan() {
    if (reg_ != nullptr) reg_->RecordPhase(phase_, NowNanos() - start_);
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  MetricRegistry* reg_;
  Phase phase_;
  uint64_t start_ = 0;
};

/// \brief Manual latency stopwatch for wait instrumentation: started at
/// construction, recorded by an explicit Finish() (a destructor-based
/// record would fold the protected section into the wait time).
/// Inactive — zero clock reads — when no registry is current.
class LatencyTimer {
 public:
  explicit LatencyTimer(Latency kind) : reg_(CurrentRegistry()), kind_(kind) {
    if (reg_ != nullptr) start_ = NowNanos();
  }

  /// Records the elapsed time once; later calls are no-ops.
  void Finish() {
    if (reg_ != nullptr) {
      reg_->RecordLatency(kind_, NowNanos() - start_);
      reg_ = nullptr;
    }
  }

  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  MetricRegistry* reg_;
  Latency kind_;
  uint64_t start_ = 0;
};

}  // namespace obs
}  // namespace pbitree

#endif  // PBITREE_OBS_METRICS_H_
