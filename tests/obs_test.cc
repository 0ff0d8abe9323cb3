// Tests for the observability layer: registry sharding and scope
// semantics, snapshot deltas, the schema-stable JSON report, the
// JoinStats::Merge critical-path fix, and — the property the subsystem
// exists for — per-operation I/O attribution that stays disjoint when
// operations interleave on one DiskManager.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/join_context.h"
#include "join/result_sink.h"
#include "obs/metrics.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/segment_store.h"

namespace pbitree {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Latency;
using obs::MetricRegistry;
using obs::MetricScope;
using obs::MetricsSnapshot;
using obs::Phase;

TEST(MetricRegistryTest, CountersSumAcrossThreads) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      MetricScope scope(&reg);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        obs::Count(Counter::kPageReads);
      }
      obs::Count(Counter::kPageWrites, kPerThread);
      obs::GaugeMax(Gauge::kPoolQueueDepth, static_cast<uint64_t>(t));
    });
  }
  for (auto& th : threads) th.join();

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter(Counter::kPageReads), kThreads * kPerThread);
  EXPECT_EQ(snap.counter(Counter::kPageWrites), kThreads * kPerThread);
  // Gauges merge by max across shards.
  EXPECT_EQ(snap.gauge(Gauge::kPoolQueueDepth), kThreads - 1);
  EXPECT_EQ(snap.counter(Counter::kBufFetches), 0u);
}

TEST(MetricRegistryTest, HooksAreNoOpsWithoutScope) {
  ASSERT_EQ(obs::CurrentRegistry(), nullptr);
  // Must not crash and must not bill anybody.
  obs::Count(Counter::kPageReads);
  obs::GaugeMax(Gauge::kJoinRecursionDepth, 99);
  { obs::ObsSpan span(Phase::kSort); }
  obs::LatencyTimer t(Latency::kIoWait);
  t.Finish();

  MetricRegistry reg;
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter(Counter::kPageReads), 0u);
  EXPECT_EQ(snap.phase(Phase::kSort).count, 0u);
}

TEST(MetricRegistryTest, ScopesNestAndRestore) {
  MetricRegistry outer, inner;
  ASSERT_EQ(obs::CurrentRegistry(), nullptr);
  {
    MetricScope s1(&outer);
    EXPECT_EQ(obs::CurrentRegistry(), &outer);
    obs::Count(Counter::kBufHits);
    {
      MetricScope s2(&inner);
      EXPECT_EQ(obs::CurrentRegistry(), &inner);
      obs::Count(Counter::kBufHits);
      // A null scope clears billing (the pool's stale-scope guard).
      MetricScope s3(nullptr);
      EXPECT_EQ(obs::CurrentRegistry(), nullptr);
      obs::Count(Counter::kBufHits);  // dropped
    }
    EXPECT_EQ(obs::CurrentRegistry(), &outer);
  }
  EXPECT_EQ(obs::CurrentRegistry(), nullptr);
  EXPECT_EQ(outer.Snapshot().counter(Counter::kBufHits), 1u);
  EXPECT_EQ(inner.Snapshot().counter(Counter::kBufHits), 1u);
}

TEST(MetricRegistryTest, RegistryReincarnationDoesNotAliasShards) {
  // A registry destroyed and a new one created (possibly at the same
  // address) must not inherit the old thread-local shard pointer.
  for (int round = 0; round < 16; ++round) {
    MetricRegistry reg;
    MetricScope scope(&reg);
    obs::Count(Counter::kPageReads);
    EXPECT_EQ(reg.Snapshot().counter(Counter::kPageReads), 1u) << round;
  }
}

TEST(MetricRegistryTest, SpanRecordsPhaseAndSurvivesScopeChurn) {
  MetricRegistry reg, other;
  {
    MetricScope scope(&reg);
    obs::ObsSpan span(Phase::kProbe);
    // The span captured `reg` at construction; installing another
    // registry inside its body must not steal the record.
    MetricScope steal(&other);
    obs::Count(Counter::kBufHits);
  }
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.phase(Phase::kProbe).count, 1u);
  EXPECT_GE(snap.phase(Phase::kProbe).max_nanos, 0u);
  EXPECT_LE(snap.phase(Phase::kProbe).max_nanos,
            snap.phase(Phase::kProbe).total_nanos);
  EXPECT_EQ(other.Snapshot().phase(Phase::kProbe).count, 0u);
  EXPECT_EQ(other.Snapshot().counter(Counter::kBufHits), 1u);
}

TEST(MetricRegistryTest, LatencyTimerRecordsOnceAndFillsHistogram) {
  MetricRegistry reg;
  {
    MetricScope scope(&reg);
    obs::LatencyTimer t(Latency::kLatchWait);
    t.Finish();
    t.Finish();  // second call must be a no-op
    reg.RecordLatency(Latency::kLatchWait, 1000);
    reg.RecordLatency(Latency::kLatchWait, 1000000);
  }
  const obs::HistogramStat& h =
      reg.Snapshot().latencies[static_cast<size_t>(Latency::kLatchWait)];
  EXPECT_EQ(h.count, 3u);
  EXPECT_GE(h.total_nanos, 1001000u);
  // Quantiles walk the log2 buckets: the p99 upper bound must cover
  // the 1 ms sample.
  EXPECT_GE(h.QuantileUpperBoundNanos(0.99), 1000000u);
  EXPECT_EQ(obs::HistogramStat{}.QuantileUpperBoundNanos(0.5), 0u);
}

TEST(MetricsSnapshotTest, DeltaSubtractsCountersAndKeepsGauges) {
  MetricRegistry reg;
  MetricScope scope(&reg);
  obs::Count(Counter::kPageReads, 10);
  reg.RecordPhase(Phase::kSort, 500);
  reg.UpdateGaugeMax(Gauge::kJoinRecursionDepth, 3);
  MetricsSnapshot before = reg.Snapshot();

  obs::Count(Counter::kPageReads, 7);
  reg.RecordPhase(Phase::kSort, 200);
  reg.UpdateGaugeMax(Gauge::kJoinRecursionDepth, 5);
  MetricsSnapshot delta = reg.Snapshot().Delta(before);

  EXPECT_EQ(delta.counter(Counter::kPageReads), 7u);
  EXPECT_EQ(delta.phase(Phase::kSort).count, 1u);
  EXPECT_EQ(delta.phase(Phase::kSort).total_nanos, 200u);
  // High-water marks carry the "after" value — no meaningful diff.
  EXPECT_EQ(delta.gauge(Gauge::kJoinRecursionDepth), 5u);
}

TEST(MetricsSnapshotTest, JsonIsSchemaStableAndDeterministic) {
  MetricsSnapshot empty;
  std::string json = empty.ToJson();
  // Every enum name appears even at zero — the key set is the schema.
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    std::string key =
        std::string("\"") + obs::CounterName(static_cast<Counter>(i)) + "\":";
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  for (size_t i = 0; i < obs::kNumGauges; ++i) {
    std::string key =
        std::string("\"") + obs::GaugeName(static_cast<Gauge>(i)) + "\":";
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    std::string key =
        std::string("\"") + obs::PhaseName(static_cast<Phase>(i)) + "\":";
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  for (size_t i = 0; i < obs::kNumLatencies; ++i) {
    std::string key =
        std::string("\"") + obs::LatencyName(static_cast<Latency>(i)) + "\":";
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  // Identical inputs serialize byte-identically (the CI determinism
  // check diffs these strings across runs).
  MetricsSnapshot a, b;
  a.counters[0] = b.counters[0] = 123;
  a.phases[0] = b.phases[0] = obs::PhaseStat{2, 300, 200};
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_NE(a.ToJson(), empty.ToJson());
}

TEST(JoinStatsMergeTest, PhaseTimersMergeAsCriticalPathMax) {
  // Regression: Merge used to SUM sort/index-build seconds across
  // parallel workers, reporting more phase time than the operation's
  // wall clock. Wall-clock phases merge as max.
  JoinStats a, b;
  a.output_pairs = 10;
  a.sort_seconds = 2.0;
  a.index_build_seconds = 0.5;
  a.recursion_depth = 3;
  b.output_pairs = 5;
  b.sort_seconds = 3.0;
  b.index_build_seconds = 0.25;
  b.recursion_depth = 7;

  a.Merge(b);
  EXPECT_EQ(a.output_pairs, 15u);          // event counts still sum
  EXPECT_DOUBLE_EQ(a.sort_seconds, 3.0);   // NOT 5.0
  EXPECT_DOUBLE_EQ(a.index_build_seconds, 0.5);  // NOT 0.75
  EXPECT_EQ(a.recursion_depth, 7u);

  // Merging the other direction keeps the same critical path.
  JoinStats c;
  c.sort_seconds = 3.0;
  JoinStats d;
  d.sort_seconds = 2.0;
  c.Merge(d);
  EXPECT_DOUBLE_EQ(c.sort_seconds, 3.0);
}

class ObsIoAttributionTest : public ::testing::Test {
 protected:
  void SetUp() override { disk_.reset(DiskManager::OpenInMemory()); }

  // Builds a heap file of `records` elements through `bm`.
  HeapFile MakeFile(BufferManager* bm, uint64_t records) {
    auto file = HeapFile::Create(bm);
    EXPECT_TRUE(file.ok());
    HeapFile::Appender app(bm, &file.value());
    for (uint64_t i = 0; i < records; ++i) {
      EXPECT_TRUE(app.AppendElement(ElementRecord{i + 1, 0, 0}).ok());
    }
    EXPECT_TRUE(app.Finish().ok());
    return *file;
  }

  // Scans `file` through `bm` under its own registry and returns the
  // number of page reads billed to it.
  static uint64_t ScanUnderOwnRegistry(BufferManager* bm,
                                       const HeapFile& file) {
    MetricRegistry reg;
    MetricScope scope(&reg);
    HeapFile::Scanner scan(bm, file);
    ElementRecord rec;
    uint64_t n = 0;
    while (scan.NextElement(&rec)) ++n;
    EXPECT_TRUE(scan.status().ok()) << scan.status().ToString();
    EXPECT_GT(n, 0u);
    return reg.Snapshot().counter(Counter::kPageReads);
  }

  std::unique_ptr<DiskManager> disk_;
};

TEST_F(ObsIoAttributionTest, InterleavedOperationsReportDisjointIo) {
  // Two operations share one DiskManager (each with its own pool) and
  // run concurrently. With the old global-delta accounting either
  // operation's delta would absorb the other's reads; per-scope
  // counters must stay disjoint and sum to the device total.
  BufferManager bm1(disk_.get(), 32), bm2(disk_.get(), 32);
  HeapFile f1 = MakeFile(&bm1, 4000);
  HeapFile f2 = MakeFile(&bm2, 9000);
  ASSERT_NE(f1.num_pages(), f2.num_pages());
  ASSERT_TRUE(bm1.PurgeAll().ok());
  ASSERT_TRUE(bm2.PurgeAll().ok());

  const uint64_t disk_reads_before = disk_->stats().page_reads;
  uint64_t op1_reads = 0, op2_reads = 0;
  std::thread t1([&] { op1_reads = ScanUnderOwnRegistry(&bm1, f1); });
  std::thread t2([&] { op2_reads = ScanUnderOwnRegistry(&bm2, f2); });
  t1.join();
  t2.join();

  // Each operation reports exactly its own cold-scan footprint...
  EXPECT_EQ(op1_reads, f1.num_pages());
  EXPECT_EQ(op2_reads, f2.num_pages());
  // ...and together they account for every physical read.
  EXPECT_EQ(op1_reads + op2_reads,
            disk_->stats().page_reads - disk_reads_before);
}

TEST_F(ObsIoAttributionTest, SerialAndInterleavedAttributionAgree) {
  BufferManager bm1(disk_.get(), 32), bm2(disk_.get(), 32);
  HeapFile f1 = MakeFile(&bm1, 6000);
  HeapFile f2 = MakeFile(&bm2, 6000);

  // Serial baseline.
  ASSERT_TRUE(bm1.PurgeAll().ok());
  ASSERT_TRUE(bm2.PurgeAll().ok());
  uint64_t serial1 = ScanUnderOwnRegistry(&bm1, f1);
  uint64_t serial2 = ScanUnderOwnRegistry(&bm2, f2);

  // Interleaved rerun must report identical per-operation I/O.
  ASSERT_TRUE(bm1.PurgeAll().ok());
  ASSERT_TRUE(bm2.PurgeAll().ok());
  uint64_t inter1 = 0, inter2 = 0;
  std::thread t1([&] { inter1 = ScanUnderOwnRegistry(&bm1, f1); });
  std::thread t2([&] { inter2 = ScanUnderOwnRegistry(&bm2, f2); });
  t1.join();
  t2.join();
  EXPECT_EQ(inter1, serial1);
  EXPECT_EQ(inter2, serial2);
}

class RunnerMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 128);
    Random rng(77);
    std::unordered_set<Code> seen;
    std::vector<Code> codes;
    PBiTreeSpec spec{16};
    while (codes.size() < 4000) {
      Code c = rng.UniformRange(1, spec.MaxCode());
      if (seen.insert(c).second) codes.push_back(c);
    }
    auto ba = ElementSetBuilder::Create(bm_.get(), spec);
    auto bd = ElementSetBuilder::Create(bm_.get(), spec);
    ASSERT_TRUE(ba.ok() && bd.ok());
    for (Code c : codes) {
      ASSERT_TRUE(ba->AddCode(c).ok());
      ASSERT_TRUE(bd->AddCode(c).ok());
    }
    auto a = ba->Build();
    auto d = bd->Build();
    ASSERT_TRUE(a.ok() && d.ok());
    a_ = *a;
    d_ = *d;
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
  ElementSet a_, d_;
};

TEST_F(RunnerMetricsTest, SerialRunMetricsMatchDeviceCounters) {
  // At threads == 1 the per-operation registry sees exactly the page
  // I/O the seed's DiskStats-delta accounting reported — the paper's
  // primary cost metric must not shift under the new plumbing.
  RunOptions opts;
  opts.work_pages = 32;
  opts.cold_cache = true;
  CountingSink sink;

  const uint64_t disk_reads_before = disk_->stats().page_reads;
  auto run = RunJoin(Algorithm::kMhcjRollup, bm_.get(), a_, d_, &sink, opts);
  ASSERT_TRUE(run.ok());
  const uint64_t disk_reads = disk_->stats().page_reads - disk_reads_before;

  EXPECT_EQ(run->page_reads, disk_reads);
  EXPECT_EQ(run->metrics.counter(Counter::kPageReads), run->page_reads);
  EXPECT_EQ(run->metrics.counter(Counter::kPageWrites), run->page_writes);
  // The runner feeds JoinStats into the registry.
  EXPECT_EQ(run->metrics.counter(Counter::kJoinOutputPairs), sink.count());
  // The run passed through instrumented phases and pool traffic stays
  // zero in the serial execution.
  EXPECT_GT(run->metrics.counter(Counter::kBufFetches), 0u);
  EXPECT_GE(run->metrics.phase(Phase::kFlush).count, 1u);
  EXPECT_EQ(run->metrics.counter(Counter::kPoolTasks), 0u);
}

TEST_F(RunnerMetricsTest, AmbientRegistryAccumulatesAcrossRuns) {
  // A caller-installed registry (the CLI's --metrics, twig pipelines)
  // is reused: run deltas stay per-run while the ambient totals
  // accumulate the whole pipeline.
  RunOptions opts;
  opts.work_pages = 32;
  opts.cold_cache = true;

  MetricRegistry pipeline;
  MetricScope scope(&pipeline);
  CountingSink s1, s2;
  auto r1 = RunJoin(Algorithm::kStackTree, bm_.get(), a_, d_, &s1, opts);
  auto r2 = RunJoin(Algorithm::kMhcjRollup, bm_.get(), a_, d_, &s2, opts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_GT(r1->page_reads, 0u);
  EXPECT_GT(r2->page_reads, 0u);

  MetricsSnapshot total = pipeline.Snapshot();
  EXPECT_EQ(total.counter(Counter::kPageReads),
            r1->page_reads + r2->page_reads);
}

TEST_F(RunnerMetricsTest, ParallelRunBillsPoolWorkToTheOperation) {
  // Segments are the only parallel unit: store the fixture at level 1
  // and fan its two segment pairs out on a 4-wide pool. Segment pools
  // barely above the budget make every extra pass cost disk reads.
  SegmentStore::Options store_opts;
  store_opts.backend = "mem";
  store_opts.pool_pages = 16;
  store_opts.create_level = 1;
  auto store = SegmentStore::Open(store_opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->StoreSet("a", a_, bm_.get()).ok());
  ASSERT_TRUE((*store)->StoreSet("d", d_, bm_.get()).ok());
  auto a = (*store)->Load("a");
  auto d = (*store)->Load("d");
  ASSERT_TRUE(a.ok() && d.ok());

  RunOptions opts;
  opts.work_pages = 6;
  opts.cold_cache = true;
  opts.threads = 4;
  RunOptions serial = opts;
  serial.threads = 1;
  CountingSink serial_sink, par_sink;
  auto sr = RunSegmentedJoin(Algorithm::kMhcj, (*store)->main_bm(), *a, *d,
                             &serial_sink, serial);
  auto pr = RunSegmentedJoin(Algorithm::kMhcj, (*store)->main_bm(), *a, *d,
                             &par_sink, opts);
  ASSERT_TRUE(sr.ok() && pr.ok());
  EXPECT_EQ(sr->output_pairs, pr->output_pairs);
  // Pool tasks exist and were billed to this run's registry, not lost
  // to the workers' ambient (null) scope.
  EXPECT_EQ(sr->metrics.counter(Counter::kPoolTasks), 0u);
  EXPECT_GT(pr->metrics.counter(Counter::kPoolTasks), 0u);
  EXPECT_GT(pr->metrics.counter(Counter::kPageReads), 0u);
  // Every segment task runs on the full work_pages, so the parallel
  // run does exactly the serial run's page I/O (a budget split across
  // the two tasks triples the reads here).
  EXPECT_EQ(pr->page_reads, sr->page_reads);
  EXPECT_EQ(pr->page_writes, sr->page_writes);
}

TEST_F(RunnerMetricsTest, ColdSegmentedRunDoesNotBillEarlierWriteBack) {
  // The stored pieces stay dirty in their segment pools. A cold run
  // writes them back before its baseline snapshot (as RunJoin does for
  // its one pool), so the first run bills only its own writes and two
  // identical runs report identical page I/O.
  SegmentStore::Options store_opts;
  store_opts.backend = "mem";
  store_opts.pool_pages = 64;
  store_opts.create_level = 1;
  auto store = SegmentStore::Open(store_opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->StoreSet("a", a_, bm_.get()).ok());
  ASSERT_TRUE((*store)->StoreSet("d", d_, bm_.get()).ok());
  auto a = (*store)->Load("a");
  auto d = (*store)->Load("d");
  ASSERT_TRUE(a.ok() && d.ok());

  RunOptions opts;
  opts.work_pages = 6;
  opts.cold_cache = true;
  CountingSink first_sink, second_sink;
  auto first = RunSegmentedJoin(Algorithm::kMhcj, (*store)->main_bm(), *a, *d,
                                &first_sink, opts);
  auto second = RunSegmentedJoin(Algorithm::kMhcj, (*store)->main_bm(), *a,
                                 *d, &second_sink, opts);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->output_pairs, second->output_pairs);
  EXPECT_EQ(first->page_writes, second->page_writes);
  EXPECT_EQ(first->page_reads, second->page_reads);
}

}  // namespace
}  // namespace pbitree
