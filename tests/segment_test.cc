// Code-space sharding differential suite: a SegmentStore must be an
// invisible storage optimisation. Level 0 reproduces the pre-sharding
// layout exactly (identical pair sequence AND page-I/O counts); levels
// 1 and 2 produce the identical pair multiset across the full
// eight-algorithm matrix, with ancestor replicas routed by the VPJ cut
// lemma and never double-counted — under a healthy backend and under
// the transient-fault schedule. Also covers the merged (replica-free)
// view, catalog persistence across reopen, and the parallel
// scatter-gather fan-in's order contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "join/segmented_set.h"
#include "pbitree/binarize.h"
#include "storage/disk_manager.h"
#include "storage/io_backend.h"
#include "storage/segment_store.h"

namespace pbitree {
namespace {

constexpr Algorithm kMatrix[] = {
    Algorithm::kVpj,       Algorithm::kMhcj,   Algorithm::kMhcjRollup,
    Algorithm::kStackTree, Algorithm::kMpmgjn, Algorithm::kInljn,
    Algorithm::kAdb,       Algorithm::kShcj,
};

/// Random document, binarized; two tag sets as join inputs (the
/// differential_test recipe).
void MakeDocumentInputs(BufferManager* bm, Random* rng, ElementSet* a,
                        ElementSet* d) {
  DataTree tree;
  tree.CreateRoot("root");
  std::vector<NodeId> pool = {tree.root()};
  const char* tags[] = {"sec", "par", "fig", "note"};
  while (tree.size() < 1200) {
    NodeId parent = pool[rng->Uniform(pool.size())];
    if (tree.node(parent).children.size() > 14) continue;
    pool.push_back(tree.AddChild(parent, tags[rng->Uniform(4)]));
  }
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());
  auto sa = ExtractTagSetByName(bm, tree, spec, "sec");
  auto sd = ExtractTagSetByName(bm, tree, spec, "fig");
  ASSERT_TRUE(sa.ok() && sd.ok());
  *a = *sa;
  *d = *sd;
}

/// All records of `set`, in file order.
std::vector<ElementRecord> ReadAll(BufferManager* bm, const ElementSet& set) {
  std::vector<ElementRecord> recs;
  if (!set.file.valid()) return recs;
  HeapFile::Scanner scan(bm, set.file);
  ElementRecord rec;
  while (scan.NextElement(&rec)) recs.push_back(rec);
  EXPECT_TRUE(scan.status().ok()) << scan.status().ToString();
  return recs;
}

/// SHCJ accepts only a single-height ancestor set: keep the modal
/// height.
ElementSet SingleHeightCopy(BufferManager* bm, const ElementSet& in) {
  std::vector<ElementRecord> recs = ReadAll(bm, in);
  std::vector<size_t> by_height(64, 0);
  for (const ElementRecord& r : recs) ++by_height[HeightOf(r.code)];
  int modal = static_cast<int>(
      std::max_element(by_height.begin(), by_height.end()) - by_height.begin());
  auto builder = ElementSetBuilder::Create(bm, in.spec);
  EXPECT_TRUE(builder.ok());
  for (const ElementRecord& r : recs) {
    if (HeightOf(r.code) == modal) {
      EXPECT_TRUE(builder->Add(r).ok());
    }
  }
  ElementSet out = builder->Build();
  EXPECT_TRUE(out.SingleHeight());
  return out;
}

struct Measured {
  std::vector<ResultPair> pairs;  // emission order, NOT sorted
  uint64_t page_reads = 0;
  uint64_t sink_spills = 0;  // fan-in BufferingSink spills
};

RunOptions ColdOptions(size_t threads = 1) {
  RunOptions opts;
  opts.work_pages = 8;     // small enough to exercise partitioning paths
  opts.cold_cache = true;  // pool residency must not differ between runs
  opts.threads = threads;
  return opts;
}

Measured RunBaseline(Algorithm alg, BufferManager* bm, const ElementSet& a,
                     const ElementSet& d) {
  VectorSink collected;
  VerifyingSink sink(&collected);
  auto run = RunJoin(alg, bm, a, d, &sink, ColdOptions());
  EXPECT_TRUE(run.ok()) << AlgorithmName(alg) << ": "
                        << run.status().ToString();
  Measured m;
  m.pairs = collected.pairs();
  if (run.ok()) m.page_reads = run->page_reads;
  return m;
}

Measured RunSegmented(Algorithm alg, SegmentStore* store,
                      const std::string& a_name, const std::string& d_name,
                      size_t threads = 1) {
  auto a = store->Load(a_name);
  auto d = store->Load(d_name);
  EXPECT_TRUE(a.ok() && d.ok());
  VectorSink collected;
  VerifyingSink sink(&collected);
  auto run = RunSegmentedJoin(alg, store->main_bm(), *a, *d, &sink,
                              ColdOptions(threads));
  EXPECT_TRUE(run.ok()) << AlgorithmName(alg) << ": "
                        << run.status().ToString();
  Measured m;
  m.pairs = collected.pairs();
  if (run.ok()) {
    m.page_reads = run->page_reads;
    m.sink_spills = run->metrics.counter(obs::Counter::kSinkSpills);
    EXPECT_EQ(run->output_pairs, collected.pairs().size()) << AlgorithmName(alg);
  }
  return m;
}

std::vector<ResultPair> Sorted(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Copies `src` (resident on `src_bm`) onto `dst_bm` in source order —
/// the pre-sharding "store a set in a database" operation.
ElementSet CopySet(BufferManager* src_bm, const ElementSet& src,
                   BufferManager* dst_bm) {
  auto builder = ElementSetBuilder::Create(dst_bm, src.spec);
  EXPECT_TRUE(builder.ok());
  for (const ElementRecord& rec : ReadAll(src_bm, src)) {
    EXPECT_TRUE(builder->Add(rec).ok());
  }
  ElementSet out = builder->Build();
  out.sorted_by_start = src.sorted_by_start;
  return out;
}

class SegmentDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    scratch_disk_.reset(DiskManager::OpenInMemory());
    scratch_bm_ = std::make_unique<BufferManager>(scratch_disk_.get(), 256);
    Random rng(GetParam());
    MakeDocumentInputs(scratch_bm_.get(), &rng, &a_, &d_);
    a_single_ = SingleHeightCopy(scratch_bm_.get(), a_);
  }

  std::unique_ptr<SegmentStore> OpenMemStore(int level) {
    SegmentStore::Options opts;
    opts.backend = "mem";
    opts.pool_pages = 256;
    opts.create_level = level;
    auto store = SegmentStore::Open(opts);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(*store);
  }

  /// Stores the fixture's three sets into `store`.
  void StoreInputs(SegmentStore* store) {
    ASSERT_TRUE(store->StoreSet("a", a_, scratch_bm_.get()).ok());
    ASSERT_TRUE(store->StoreSet("a1", a_single_, scratch_bm_.get()).ok());
    ASSERT_TRUE(store->StoreSet("d", d_, scratch_bm_.get()).ok());
  }

  std::unique_ptr<DiskManager> scratch_disk_;
  std::unique_ptr<BufferManager> scratch_bm_;
  ElementSet a_, d_, a_single_;
};

// Level 0 must be the pre-sharding behaviour, not merely equivalent:
// against a plain database holding the same copies, every algorithm
// emits the identical pair *sequence* with identical page-read counts.
TEST_P(SegmentDifferentialTest, LevelZeroIsByteIdenticalToPlainLayout) {
  std::unique_ptr<DiskManager> plain_disk(DiskManager::OpenInMemory());
  BufferManager plain_bm(plain_disk.get(), 256);
  ElementSet pa = CopySet(scratch_bm_.get(), a_, &plain_bm);
  ElementSet pa1 = CopySet(scratch_bm_.get(), a_single_, &plain_bm);
  ElementSet pd = CopySet(scratch_bm_.get(), d_, &plain_bm);

  std::unique_ptr<SegmentStore> store = OpenMemStore(0);
  StoreInputs(store.get());
  ASSERT_EQ(store->level(), 0);
  ASSERT_EQ(store->num_segments(), 1u);

  for (Algorithm alg : kMatrix) {
    const ElementSet& anc = alg == Algorithm::kShcj ? pa1 : pa;
    const std::string a_name = alg == Algorithm::kShcj ? "a1" : "a";
    Measured plain = RunBaseline(alg, &plain_bm, anc, pd);
    Measured seg = RunSegmented(alg, store.get(), a_name, "d");
    EXPECT_EQ(plain.pairs, seg.pairs)
        << AlgorithmName(alg) << ": level-0 pair sequence differs";
    EXPECT_EQ(plain.page_reads, seg.page_reads)
        << AlgorithmName(alg) << ": level-0 page-read parity broken";
    EXPECT_GT(seg.pairs.size(), 0u) << AlgorithmName(alg);
  }
}

// Levels 1 and 2: identical pair multiset across the matrix, no
// duplicates from ancestor replication, and deterministic per-operation
// page-read accounting (a repeat of the same cold run reads exactly the
// same pages).
TEST_P(SegmentDifferentialTest, ShardedLevelsMatchTheMatrix) {
  Measured ref = RunBaseline(Algorithm::kVpj, scratch_bm_.get(), a_, d_);
  Measured ref_single =
      RunBaseline(Algorithm::kVpj, scratch_bm_.get(), a_single_, d_);
  const std::vector<ResultPair> expected = Sorted(ref.pairs);
  const std::vector<ResultPair> expected_single = Sorted(ref_single.pairs);
  ASSERT_GT(expected.size(), 0u);

  for (int level : {1, 2}) {
    std::unique_ptr<SegmentStore> store = OpenMemStore(level);
    StoreInputs(store.get());
    ASSERT_EQ(store->num_segments(), size_t{1} << level);

    for (Algorithm alg : kMatrix) {
      const bool shcj = alg == Algorithm::kShcj;
      Measured seg = RunSegmented(alg, store.get(), shcj ? "a1" : "a", "d");
      std::vector<ResultPair> got = Sorted(seg.pairs);
      EXPECT_EQ(got, shcj ? expected_single : expected)
          << AlgorithmName(alg) << " at level " << level;
      // Replication must never duplicate a pair.
      EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
          << AlgorithmName(alg) << " at level " << level;

      Measured again = RunSegmented(alg, store.get(), shcj ? "a1" : "a", "d");
      EXPECT_EQ(seg.pairs, again.pairs) << AlgorithmName(alg);
      EXPECT_EQ(seg.page_reads, again.page_reads)
          << AlgorithmName(alg) << " at level " << level
          << ": cold-run page-read accounting not deterministic";
    }
  }
}

// Record accounting across the cut: every native lands in exactly its
// designated segment, above-cut records replicate to exactly the
// segments they span, and the master entry counts natives only.
TEST_P(SegmentDifferentialTest, ReplicaAccountingIsExact) {
  std::vector<ElementRecord> source = ReadAll(scratch_bm_.get(), a_);
  for (int level : {1, 2}) {
    std::unique_ptr<SegmentStore> store = OpenMemStore(level);
    ASSERT_TRUE(store->StoreSet("a", a_, scratch_bm_.get()).ok());
    auto seg = store->Load("a");
    ASSERT_TRUE(seg.ok());
    const int h_cut = seg->cut_height();

    uint64_t expected_stored = 0;
    for (const ElementRecord& rec : source) {
      SegmentSpan span = SegmentSpanOf(rec.code, h_cut);
      expected_stored += span.hi - span.lo + 1;
    }

    uint64_t stored = 0, natives = 0;
    for (size_t k = 0; k < seg->segments.size(); ++k) {
      const SegmentedSet::Segment& piece = seg->segments[k];
      std::vector<ElementRecord> recs = ReadAll(piece.bm, piece.set);
      stored += recs.size();
      for (const ElementRecord& rec : recs) {
        if (DesignatedSegment(rec.code, h_cut) == k) ++natives;
        // A replica only ever sits in a segment its subtree spans.
        SegmentSpan span = SegmentSpanOf(rec.code, h_cut);
        EXPECT_GE(k, span.lo);
        EXPECT_LE(k, span.hi);
      }
      if (!piece.has_replicas) {
        // The flag is exact on the no-replica side: every record is
        // designated here.
        for (const ElementRecord& rec : recs) {
          EXPECT_EQ(DesignatedSegment(rec.code, h_cut), k);
        }
      }
    }
    EXPECT_EQ(stored, expected_stored) << "level " << level;
    EXPECT_EQ(natives, source.size()) << "level " << level;
    EXPECT_EQ(seg->num_records, source.size()) << "level " << level;
  }
}

// The merged view concatenates segments with replicas filtered: the
// record multiset always matches the source, and a Start-sorted source
// comes back as the byte-identical sequence.
TEST_P(SegmentDifferentialTest, MergedViewRoundTrips) {
  std::vector<ElementRecord> source = ReadAll(scratch_bm_.get(), a_);

  auto key = [](const ElementRecord& r) {
    return std::make_pair(r.code, std::make_pair(r.tag, r.doc));
  };
  auto sorted_keys = [&](const std::vector<ElementRecord>& recs) {
    std::vector<decltype(key(recs[0]))> keys;
    keys.reserve(recs.size());
    for (const ElementRecord& r : recs) keys.push_back(key(r));
    std::sort(keys.begin(), keys.end());
    return keys;
  };

  for (int level : {1, 2}) {
    std::unique_ptr<SegmentStore> store = OpenMemStore(level);
    ASSERT_TRUE(store->StoreSet("a", a_, scratch_bm_.get()).ok());
    auto merged = store->LoadMerged("a", store->main_bm());
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    std::vector<ElementRecord> got = ReadAll(store->main_bm(), *merged);
    ASSERT_EQ(got.size(), source.size());
    EXPECT_EQ(sorted_keys(got), sorted_keys(source)) << "level " << level;
    ASSERT_TRUE(merged->file.Drop(store->main_bm()).ok());
  }

  // Start-sorted source: merged concatenation in segment order IS the
  // original sequence, element for element.
  std::vector<ElementRecord> by_start = source;
  std::stable_sort(by_start.begin(), by_start.end(),
                   [](const ElementRecord& x, const ElementRecord& y) {
                     if (StartOf(x.code) != StartOf(y.code)) {
                       return StartOf(x.code) < StartOf(y.code);
                     }
                     return HeightOf(x.code) > HeightOf(y.code);
                   });
  auto builder = ElementSetBuilder::Create(scratch_bm_.get(), a_.spec);
  ASSERT_TRUE(builder.ok());
  for (const ElementRecord& rec : by_start) ASSERT_TRUE(builder->Add(rec).ok());
  ElementSet sorted_set = builder->Build();
  sorted_set.sorted_by_start = true;

  for (int level : {1, 2}) {
    std::unique_ptr<SegmentStore> store = OpenMemStore(level);
    ASSERT_TRUE(store->StoreSet("s", sorted_set, scratch_bm_.get()).ok());
    auto merged = store->LoadMerged("s", store->main_bm());
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_TRUE(merged->sorted_by_start);
    std::vector<ElementRecord> got = ReadAll(store->main_bm(), *merged);
    ASSERT_EQ(got.size(), by_start.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].code, by_start[i].code) << "at " << i;
    }
    ASSERT_TRUE(merged->file.Drop(store->main_bm()).ok());
  }
  ASSERT_TRUE(sorted_set.file.Drop(scratch_bm_.get()).ok());
}

// The parallel scatter-gather path replays per-segment results through
// the order-preserving fan-in: the emitted sequence equals the serial
// segment-order run exactly, not just as a multiset. Every segment task
// gets the full work_pages at any width, so page reads match too.
TEST_P(SegmentDifferentialTest, ParallelFanInPreservesSerialOrder) {
  std::unique_ptr<SegmentStore> store = OpenMemStore(2);
  StoreInputs(store.get());
  for (Algorithm alg : {Algorithm::kVpj, Algorithm::kStackTree,
                        Algorithm::kMhcj}) {
    Measured serial = RunSegmented(alg, store.get(), "a", "d", /*threads=*/1);
    Measured parallel = RunSegmented(alg, store.get(), "a", "d", /*threads=*/4);
    EXPECT_EQ(serial.pairs, parallel.pairs)
        << AlgorithmName(alg) << ": fan-in broke the order contract";
    // No fan-in spill on this data, so the reads compare directly.
    EXPECT_EQ(parallel.sink_spills, 0u) << AlgorithmName(alg);
    EXPECT_EQ(serial.page_reads, parallel.page_reads)
        << AlgorithmName(alg) << ": a segment task ran on a smaller budget";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentDifferentialTest,
                         ::testing::Values(101u, 404u, 808u));

// ---------------------------------------------------------------------
// Synthetic replication stress: a hand-built code set whose upper
// heights all straddle the cut, so the replication path carries real
// weight (the random documents keep most tagged elements far below the
// root).

TEST(SegmentReplicationTest, AboveCutAncestorsJoinExactly) {
  PBiTreeSpec spec{6};  // root 32, leaves 1..63
  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 128);

  // A: every node of height >= 2 (all of heights 4 and 5 straddle the
  // level-2 cut). D: every leaf.
  auto build = [&](int min_h, int max_h) {
    auto builder = ElementSetBuilder::Create(&bm, spec);
    EXPECT_TRUE(builder.ok());
    for (Code c = 1; c < (Code{1} << spec.height); ++c) {
      int h = HeightOf(c);
      if (h >= min_h && h <= max_h) {
        EXPECT_TRUE(builder->AddCode(c).ok());
      }
    }
    return builder->Build();
  };
  ElementSet a = build(2, 5);
  ElementSet d = build(0, 0);

  Measured ref = RunBaseline(Algorithm::kVpj, &bm, a, d);
  const std::vector<ResultPair> expected = Sorted(ref.pairs);
  // Every height-2..5 node has its full leaf fringe in the result:
  // 2^(5-h) nodes at height h, 2^h leaves each — 32 pairs per height.
  ASSERT_EQ(expected.size(), size_t{4 * 32});

  for (int level : {1, 2}) {
    SegmentStore::Options sopts;
    sopts.backend = "mem";
    sopts.pool_pages = 128;
    sopts.create_level = level;
    auto store = SegmentStore::Open(sopts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->StoreSet("a", a, &bm).ok());
    ASSERT_TRUE((*store)->StoreSet("d", d, &bm).ok());

    // Replication actually happened: pieces hold more than the natives.
    auto seg = (*store)->Load("a");
    ASSERT_TRUE(seg.ok());
    uint64_t stored = 0;
    for (const SegmentedSet::Segment& piece : seg->segments) {
      stored += piece.set.num_records();
    }
    EXPECT_GT(stored, seg->num_records) << "level " << level;

    for (Algorithm alg : kMatrix) {
      if (alg == Algorithm::kShcj) continue;  // A spans several heights
      Measured got = RunSegmented(alg, store->get(), "a", "d");
      EXPECT_EQ(Sorted(got.pairs), expected)
          << AlgorithmName(alg) << " at level " << level;
    }
  }
  ASSERT_TRUE(a.file.Drop(&bm).ok());
  ASSERT_TRUE(d.file.Drop(&bm).ok());
}

// ---------------------------------------------------------------------
// The differential matrix under the PR 4 transient-fault schedule: the
// retry layer sits below the segment files exactly as it does below a
// single database file, so faults change nothing about results or
// about the deterministic page-read accounting. Suite name carries
// "FaultInjection" so CI's ambient-schedule job excludes it (it arms
// its own).

TEST(SegmentFaultInjectionTest, TransientFaultsPreserveTheMatrix) {
  FaultSchedule sched;
  sched.seed = 42;
  sched.read_every = 17;
  sched.write_every = 13;
  sched.transient = 2;

  // Healthy scratch environment for the inputs and the reference runs.
  std::unique_ptr<DiskManager> scratch_disk(DiskManager::OpenInMemory());
  BufferManager scratch_bm(scratch_disk.get(), 256);
  Random rng(42);
  ElementSet a, d;
  MakeDocumentInputs(&scratch_bm, &rng, &a, &d);
  ElementSet a_single = SingleHeightCopy(&scratch_bm, a);
  Measured ref = RunBaseline(Algorithm::kVpj, &scratch_bm, a, d);
  Measured ref_single = RunBaseline(Algorithm::kVpj, &scratch_bm, a_single, d);
  const std::vector<ResultPair> expected = Sorted(ref.pairs);
  const std::vector<ResultPair> expected_single = Sorted(ref_single.pairs);
  ASSERT_GT(expected.size(), 0u);

  for (int level : {0, 1, 2}) {
    SegmentStore::Options sopts;
    sopts.backend = "mem";
    sopts.pool_pages = 256;
    sopts.create_level = level;
    // Every file of the store — main and segments — sits on a faulting
    // device with the PR 4 schedule.
    sopts.make_backend =
        [&sched](const std::string&) -> StatusOr<std::unique_ptr<IoBackend>> {
      return std::unique_ptr<IoBackend>(std::make_unique<FaultInjectingBackend>(
          std::make_unique<MemIoBackend>(), sched));
    };
    auto store = SegmentStore::Open(sopts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->StoreSet("a", a, &scratch_bm).ok());
    ASSERT_TRUE((*store)->StoreSet("a1", a_single, &scratch_bm).ok());
    ASSERT_TRUE((*store)->StoreSet("d", d, &scratch_bm).ok());

    for (Algorithm alg : kMatrix) {
      const bool shcj = alg == Algorithm::kShcj;
      Measured got = RunSegmented(alg, store->get(), shcj ? "a1" : "a", "d");
      EXPECT_EQ(Sorted(got.pairs), shcj ? expected_single : expected)
          << AlgorithmName(alg) << " at level " << level;
      // Page-read accounting stays deterministic under retries: the
      // same cold run reads the same pages.
      Measured again = RunSegmented(alg, store->get(), shcj ? "a1" : "a", "d");
      EXPECT_EQ(got.pairs, again.pairs) << AlgorithmName(alg);
      EXPECT_EQ(got.page_reads, again.page_reads)
          << AlgorithmName(alg) << " at level " << level;
    }
  }
}

// ---------------------------------------------------------------------
// Persistence: a segmented store written through the file backend
// reopens with its level, master entries and per-segment pieces intact,
// and serves identical joins.

TEST(SegmentPersistenceTest, ReopenedStoreServesIdenticalJoins) {
  const std::string path = ::testing::TempDir() + "segment_persist.db";
  // Fresh files every run.
  for (int k = 0; k < 4; ++k) {
    std::remove((path + ".seg" + std::to_string(k)).c_str());
  }
  std::remove(path.c_str());

  std::unique_ptr<DiskManager> scratch_disk(DiskManager::OpenInMemory());
  BufferManager scratch_bm(scratch_disk.get(), 256);
  Random rng(7);
  ElementSet a, d;
  MakeDocumentInputs(&scratch_bm, &rng, &a, &d);
  Measured ref = RunBaseline(Algorithm::kVpj, &scratch_bm, a, d);
  const std::vector<ResultPair> expected = Sorted(ref.pairs);

  {
    SegmentStore::Options sopts;
    sopts.backend = "file";
    sopts.path = path;
    sopts.pool_pages = 256;
    sopts.create_level = 2;
    auto store = SegmentStore::Open(sopts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->StoreSet("a", a, &scratch_bm).ok());
    ASSERT_TRUE((*store)->StoreSet("d", d, &scratch_bm).ok());
    ASSERT_TRUE((*store)->SaveCatalogs().ok());
    ASSERT_TRUE((*store)->FlushAndSync().ok());
  }

  {
    SegmentStore::Options sopts;
    sopts.backend = "file";
    sopts.path = path;
    sopts.pool_pages = 256;  // no create_level: the header decides
    auto store = SegmentStore::Open(sopts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->level(), 2);
    EXPECT_EQ((*store)->num_segments(), 4u);
    EXPECT_TRUE((*store)->main_catalog()->IsSegmented("a"));

    Measured got = RunSegmented(Algorithm::kVpj, store->get(), "a", "d");
    EXPECT_EQ(Sorted(got.pairs), expected);
  }

  // A conflicting create_level on a non-empty store is refused.
  {
    SegmentStore::Options sopts;
    sopts.backend = "file";
    sopts.path = path;
    sopts.pool_pages = 256;
    sopts.create_level = 1;
    auto store = SegmentStore::Open(sopts);
    EXPECT_FALSE(store.ok());
  }

  for (int k = 0; k < 4; ++k) {
    std::remove((path + ".seg" + std::to_string(k)).c_str());
  }
  std::remove(path.c_str());
}

// Mismatched inputs are rejected before any I/O happens.
TEST(SegmentStoreTest, RunSegmentedJoinValidatesItsInputs) {
  std::unique_ptr<DiskManager> scratch_disk(DiskManager::OpenInMemory());
  BufferManager scratch_bm(scratch_disk.get(), 256);
  Random rng(3);
  ElementSet a, d;
  MakeDocumentInputs(&scratch_bm, &rng, &a, &d);

  auto open = [&](int level) {
    SegmentStore::Options opts;
    opts.backend = "mem";
    opts.pool_pages = 128;
    opts.create_level = level;
    auto store = SegmentStore::Open(opts);
    EXPECT_TRUE(store.ok());
    return std::move(*store);
  };
  std::unique_ptr<SegmentStore> s1 = open(1);
  std::unique_ptr<SegmentStore> s2 = open(2);
  ASSERT_TRUE(s1->StoreSet("a", a, &scratch_bm).ok());
  ASSERT_TRUE(s1->StoreSet("d", d, &scratch_bm).ok());
  ASSERT_TRUE(s2->StoreSet("a", a, &scratch_bm).ok());
  ASSERT_TRUE(s2->StoreSet("d", d, &scratch_bm).ok());

  auto sa1 = s1->Load("a");
  auto sd1 = s1->Load("d");
  auto sd2 = s2->Load("d");
  ASSERT_TRUE(sa1.ok() && sd1.ok() && sd2.ok());

  // Same level as s2 but a distinct store: distinct segment pools.
  std::unique_ptr<SegmentStore> s3 = open(2);
  ASSERT_TRUE(s3->StoreSet("d", d, &scratch_bm).ok());

  CountingSink sink;
  RunOptions opts;
  // Levels differ.
  auto cross = RunSegmentedJoin(Algorithm::kVpj, s1->main_bm(), *sa1, *sd2,
                                &sink, opts);
  EXPECT_FALSE(cross.ok());
  // Same level but pieces from different stores (different pools).
  auto sa2 = s2->Load("a");
  auto sd3 = s3->Load("d");
  ASSERT_TRUE(sa2.ok() && sd3.ok());
  auto mixed = RunSegmentedJoin(Algorithm::kVpj, s2->main_bm(), *sa2, *sd3,
                                &sink, opts);
  EXPECT_FALSE(mixed.ok());
  // Matched inputs from one store work.
  auto good = RunSegmentedJoin(Algorithm::kVpj, s2->main_bm(), *sa2, *sd2,
                               &sink, opts);
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

}  // namespace
}  // namespace pbitree
