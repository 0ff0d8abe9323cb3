#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace pbitree {
namespace obs {

namespace internal {
thread_local constinit MetricRegistry* current_registry = nullptr;
}  // namespace internal

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kPageReads: return "page_reads";
    case Counter::kPageWrites: return "page_writes";
    case Counter::kPagesAllocated: return "pages_allocated";
    case Counter::kPagesFreed: return "pages_freed";
    case Counter::kBufFetches: return "buf_fetches";
    case Counter::kBufHits: return "buf_hits";
    case Counter::kBufMisses: return "buf_misses";
    case Counter::kBufEvictions: return "buf_evictions";
    case Counter::kBufDirtyWrites: return "buf_dirty_writes";
    case Counter::kSortRuns: return "sort_runs";
    case Counter::kSortMergePasses: return "sort_merge_passes";
    case Counter::kSinkSpills: return "sink_spills";
    case Counter::kSinkSpilledPairs: return "sink_spilled_pairs";
    case Counter::kPoolTasks: return "pool_tasks";
    case Counter::kPoolHelpRuns: return "pool_help_runs";
    case Counter::kJoinOutputPairs: return "join_output_pairs";
    case Counter::kJoinFalseHits: return "join_false_hits";
    case Counter::kJoinPartitions: return "join_partitions";
    case Counter::kJoinPurgedPartitions: return "join_purged_partitions";
    case Counter::kJoinMergedPartitions: return "join_merged_partitions";
    case Counter::kJoinReplicatedNodes: return "join_replicated_nodes";
    case Counter::kJoinIndexProbes: return "join_index_probes";
    case Counter::kIoRetries: return "io_retries";
    case Counter::kIoChecksumFailures: return "io_checksum_failures";
    case Counter::kIoFaultsInjected: return "io_faults_injected";
    case Counter::kServeQueries: return "serve_queries";
    case Counter::kServeRejected: return "serve_rejected";
    case Counter::kCatalogLoads: return "catalog_loads";
    case Counter::kBufPrefetchIssued: return "buf_prefetch_issued";
    case Counter::kBufPrefetchHits: return "buf_prefetch_hits";
    case Counter::kServeCacheHits: return "serve_cache_hits";
    case Counter::kServeCacheMisses: return "serve_cache_misses";
    case Counter::kServeCacheEvictions: return "serve_cache_evictions";
  }
  return "unknown_counter";
}

const char* GaugeName(Gauge g) {
  switch (g) {
    case Gauge::kPoolQueueDepth: return "pool_queue_depth_max";
    case Gauge::kJoinRecursionDepth: return "join_recursion_depth_max";
    case Gauge::kServeQueueDepth: return "serve_queue_depth_max";
    case Gauge::kServeCacheBytes: return "serve_cache_bytes_max";
  }
  return "unknown_gauge";
}

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kPartition: return "partition";
    case Phase::kBuild: return "build";
    case Phase::kProbe: return "probe";
    case Phase::kSort: return "sort";
    case Phase::kMerge: return "merge";
    case Phase::kFlush: return "flush";
    case Phase::kReplay: return "replay";
  }
  return "unknown_phase";
}

const char* LatencyName(Latency l) {
  switch (l) {
    case Latency::kIoWait: return "io_wait";
    case Latency::kLatchWait: return "latch_wait";
    case Latency::kServeQueueWait: return "serve_queue_wait";
    case Latency::kServeQuery: return "serve_query";
  }
  return "unknown_latency";
}

namespace {

size_t BucketOf(uint64_t nanos) {
  const size_t b = static_cast<size_t>(std::bit_width(nanos));
  return std::min(b, kHistBuckets - 1);
}

// Thread-local one-entry shard cache. Keyed by the registry's unique id
// rather than its address so a registry reincarnated at the same address
// can never alias a dead cache entry.
struct ShardCache {
  uint64_t registry_id = 0;
  MetricRegistry::Shard* shard = nullptr;
};
thread_local ShardCache tls_shard_cache;

std::atomic<uint64_t> next_registry_id{1};

}  // namespace

uint64_t HistogramStat::QuantileUpperBoundNanos(double q) const {
  if (count == 0) return 0;
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  uint64_t seen = 0;
  for (size_t b = 0; b < kHistBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank || (seen == count && seen != 0)) {
      return b == 0 ? 1 : (uint64_t{1} << b) - 1;
    }
  }
  return (uint64_t{1} << (kHistBuckets - 1)) - 1;
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& before) const {
  MetricsSnapshot d;
  for (size_t i = 0; i < kNumCounters; ++i) {
    d.counters[i] = counters[i] - before.counters[i];
  }
  for (size_t i = 0; i < kNumGauges; ++i) d.gauges[i] = gauges[i];
  for (size_t i = 0; i < kNumPhases; ++i) {
    d.phases[i].count = phases[i].count - before.phases[i].count;
    d.phases[i].total_nanos =
        phases[i].total_nanos - before.phases[i].total_nanos;
    d.phases[i].max_nanos = phases[i].max_nanos;
  }
  for (size_t i = 0; i < kNumLatencies; ++i) {
    d.latencies[i].count = latencies[i].count - before.latencies[i].count;
    d.latencies[i].total_nanos =
        latencies[i].total_nanos - before.latencies[i].total_nanos;
    for (size_t b = 0; b < kHistBuckets; ++b) {
      d.latencies[i].buckets[b] =
          latencies[i].buckets[b] - before.latencies[i].buckets[b];
    }
  }
  return d;
}

namespace {

void AppendKeyU64(std::string* out, const char* key, uint64_t v, bool* first) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", *first ? "" : ",", key,
                static_cast<unsigned long long>(v));
  *first = false;
  out->append(buf);
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out;
  out.reserve(2048);
  out.push_back('{');

  out.append("\"counters\":{");
  bool first = true;
  for (size_t i = 0; i < kNumCounters; ++i) {
    AppendKeyU64(&out, CounterName(static_cast<Counter>(i)), counters[i],
                 &first);
  }
  out.append("},\"gauges\":{");
  first = true;
  for (size_t i = 0; i < kNumGauges; ++i) {
    AppendKeyU64(&out, GaugeName(static_cast<Gauge>(i)), gauges[i], &first);
  }
  out.append("},\"phases\":{");
  first = true;
  for (size_t i = 0; i < kNumPhases; ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%llu,\"total_nanos\":%llu,"
                  "\"max_nanos\":%llu}",
                  first ? "" : ",", PhaseName(static_cast<Phase>(i)),
                  static_cast<unsigned long long>(phases[i].count),
                  static_cast<unsigned long long>(phases[i].total_nanos),
                  static_cast<unsigned long long>(phases[i].max_nanos));
    first = false;
    out.append(buf);
  }
  out.append("},\"latencies\":{");
  first = true;
  for (size_t i = 0; i < kNumLatencies; ++i) {
    const HistogramStat& h = latencies[i];
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%llu,\"total_nanos\":%llu,"
                  "\"p50_le_nanos\":%llu,\"p99_le_nanos\":%llu}",
                  first ? "" : ",", LatencyName(static_cast<Latency>(i)),
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.total_nanos),
                  static_cast<unsigned long long>(
                      h.QuantileUpperBoundNanos(0.50)),
                  static_cast<unsigned long long>(
                      h.QuantileUpperBoundNanos(0.99)));
    first = false;
    out.append(buf);
  }
  out.append("}}");
  return out;
}

MetricRegistry::MetricRegistry()
    : id_(next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricRegistry::~MetricRegistry() {
  // Invalidate this thread's cache if it points into us. Other threads'
  // stale entries are keyed by id_ (never reused), so they miss cleanly.
  if (tls_shard_cache.registry_id == id_) tls_shard_cache = ShardCache{};
}

MetricRegistry::Shard* MetricRegistry::LocalShard() {
  if (tls_shard_cache.registry_id == id_) return tls_shard_cache.shard;
  std::lock_guard<std::mutex> lk(mu_);
  const std::thread::id me = std::this_thread::get_id();
  for (auto& [tid, shard] : shards_) {
    if (tid == me) {
      tls_shard_cache = {id_, shard.get()};
      return shard.get();
    }
  }
  shards_.emplace_back(me, std::make_unique<Shard>());
  Shard* s = shards_.back().second.get();
  tls_shard_cache = {id_, s};
  return s;
}

void MetricRegistry::UpdateGaugeMax(Gauge g, uint64_t value) {
  std::atomic<uint64_t>& slot = LocalShard()->gauges[static_cast<size_t>(g)];
  uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void MetricRegistry::RecordPhase(Phase p, uint64_t nanos) {
  Shard* s = LocalShard();
  const size_t i = static_cast<size_t>(p);
  s->phase_count[i].fetch_add(1, std::memory_order_relaxed);
  s->phase_total[i].fetch_add(nanos, std::memory_order_relaxed);
  uint64_t cur = s->phase_max[i].load(std::memory_order_relaxed);
  while (nanos > cur && !s->phase_max[i].compare_exchange_weak(
                            cur, nanos, std::memory_order_relaxed)) {
  }
}

void MetricRegistry::RecordLatency(Latency l, uint64_t nanos) {
  Shard* s = LocalShard();
  const size_t i = static_cast<size_t>(l);
  s->lat_count[i].fetch_add(1, std::memory_order_relaxed);
  s->lat_total[i].fetch_add(nanos, std::memory_order_relaxed);
  s->lat_buckets[i][BucketOf(nanos)].fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [tid, shard] : shards_) {
    (void)tid;
    for (size_t i = 0; i < kNumCounters; ++i) {
      snap.counters[i] += shard->counters[i].load(std::memory_order_relaxed);
    }
    for (size_t i = 0; i < kNumGauges; ++i) {
      snap.gauges[i] = std::max(
          snap.gauges[i], shard->gauges[i].load(std::memory_order_relaxed));
    }
    for (size_t i = 0; i < kNumPhases; ++i) {
      snap.phases[i].count +=
          shard->phase_count[i].load(std::memory_order_relaxed);
      snap.phases[i].total_nanos +=
          shard->phase_total[i].load(std::memory_order_relaxed);
      snap.phases[i].max_nanos =
          std::max(snap.phases[i].max_nanos,
                   shard->phase_max[i].load(std::memory_order_relaxed));
    }
    for (size_t i = 0; i < kNumLatencies; ++i) {
      snap.latencies[i].count +=
          shard->lat_count[i].load(std::memory_order_relaxed);
      snap.latencies[i].total_nanos +=
          shard->lat_total[i].load(std::memory_order_relaxed);
      for (size_t b = 0; b < kHistBuckets; ++b) {
        snap.latencies[i].buckets[b] +=
            shard->lat_buckets[i][b].load(std::memory_order_relaxed);
      }
    }
  }
  return snap;
}

}  // namespace obs
}  // namespace pbitree
