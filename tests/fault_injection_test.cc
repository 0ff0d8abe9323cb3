// Fault-tolerance suite for the pluggable IoBackend storage API: CRC32C
// vectors, fault-schedule parsing, the FaultInjectingBackend decorator,
// the DiskManager retry/checksum layer, and end-to-end join runs under
// injected faults — transient schedules must be absorbed by retries with
// correct results, permanent ones must fail the run without leaking a
// single pinned frame or temp page, and torn/short transfers must be
// detected as kCorruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "obs/metrics.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "storage/io_backend.h"
#include "storage/segment_store.h"
#include "zero_padded_printer.h"

namespace pbitree {
namespace {

// ---------------------------------------------------------------------
// CRC32C: the RFC 3720 check vectors pin the exact polynomial and bit
// order — any table or reflection bug fails these, not just "changes".
// Every path this CPU can run is checked on its own, with the portable
// table loop as the oracle for the hardware one.

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

struct Crc32cPath {
  const char* name;
  Crc32cFn fn;
};

/// The portable loop first, then each hardware path the CPU supports.
std::vector<Crc32cPath> Crc32cPaths() {
  std::vector<Crc32cPath> paths = {{"portable", internal::Crc32cPortable}};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    paths.push_back({"sse4.2", internal::Crc32cSse42});
  }
#endif
  return paths;
}

TEST(Crc32cTest, Rfc3720Vectors) {
  char zeros[32] = {};
  char ones[32];
  std::memset(ones, 0xFF, sizeof(ones));
  char ascending[32];
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  for (const Crc32cPath& path : Crc32cPaths()) {
    SCOPED_TRACE(path.name);
    EXPECT_EQ(path.fn(0, zeros, sizeof(zeros)), 0x8A9136AAu);
    EXPECT_EQ(path.fn(0, ones, sizeof(ones)), 0x62A8AB43u);
    EXPECT_EQ(path.fn(0, ascending, sizeof(ascending)), 0x46DD794Eu);
    EXPECT_EQ(path.fn(0, "123456789", 9), 0xE3069283u);
  }
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, PathsAgreeOnEveryLengthAndAlignment) {
  // Lengths 0..9000 at start offsets 0..7 cover every tail length, every
  // misalignment of the 8-byte loads, and buffers over two pages long.
  constexpr size_t kMaxLen = 9000;
  Random rng(20030305);
  std::vector<char> buf(kMaxLen + 8);
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  const std::vector<Crc32cPath> paths = Crc32cPaths();  // [0]: the oracle
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const char* p = buf.data() + offset;
      const uint32_t want = paths[0].fn(0, p, len);
      for (size_t k = 1; k < paths.size(); ++k) {
        ASSERT_EQ(paths[k].fn(0, p, len), want)
            << paths[k].name << " offset=" << offset << " len=" << len;
      }
      ASSERT_EQ(Crc32c(p, len), want) << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  char page[kPageSize];
  Random rng(7);
  for (char& c : page) c = static_cast<char>(rng.Uniform(256));
  const uint32_t whole = internal::Crc32cPortable(0, page, kPageSize);
  for (const Crc32cPath& path : Crc32cPaths()) {
    SCOPED_TRACE(path.name);
    for (size_t split = 0; split <= kPageSize; ++split) {
      const uint32_t head = path.fn(0, page, split);
      ASSERT_EQ(path.fn(head, page + split, kPageSize - split), whole)
          << "split=" << split;
    }
  }
  const char data[] = "the quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Crc32cExtend(Crc32c(data, 10), data + 10, sizeof(data) - 10),
            Crc32c(data, sizeof(data)));
}

TEST(Crc32cTest, ZeroedFieldMatchesACopyWithTheFieldZeroed) {
  char page[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) page[i] = static_cast<char>(i * 37);
  for (size_t off : {size_t{0}, size_t{20}, size_t{44}, kPageSize - 4}) {
    char copy[kPageSize];
    std::memcpy(copy, page, kPageSize);
    std::memset(copy + off, 0, 4);
    EXPECT_EQ(Crc32cZeroedField(page, kPageSize, off), Crc32c(copy, kPageSize))
        << "offset=" << off;
  }
}

TEST(Crc32cTest, DispatchTakesTheHardwarePathWhenTheCpuHasIt) {
#if defined(__x86_64__)
  EXPECT_EQ(internal::Crc32cUsesHardware(),
            static_cast<bool>(__builtin_cpu_supports("sse4.2")));
#else
  EXPECT_FALSE(internal::Crc32cUsesHardware());
#endif
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  char page[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) page[i] = static_cast<char>(i * 31);
  uint32_t before = Crc32c(page, kPageSize);
  page[kPageSize / 2] ^= 0x01;
  EXPECT_NE(before, Crc32c(page, kPageSize));
}

// ---------------------------------------------------------------------
// FaultSchedule parsing (the PBITREE_FAULT_SCHEDULE surface).

TEST(FaultScheduleTest, ParseFullSpec) {
  auto s = FaultSchedule::Parse(
      "seed=7,write_every=13,read_every=5,transient=2,write_p=0.25,"
      "torn_writes=1,short_reads=1");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->seed, 7u);
  EXPECT_EQ(s->write_every, 13u);
  EXPECT_EQ(s->read_every, 5u);
  EXPECT_EQ(s->transient, 2u);
  EXPECT_DOUBLE_EQ(s->write_p, 0.25);
  EXPECT_TRUE(s->torn_writes);
  EXPECT_TRUE(s->short_reads);
  EXPECT_TRUE(s->Enabled());
}

TEST(FaultScheduleTest, EmptySpecDisabled) {
  auto s = FaultSchedule::Parse("");
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(s->Enabled());
  EXPECT_FALSE(FaultSchedule{}.Enabled());
}

TEST(FaultScheduleTest, RejectsGarbage) {
  EXPECT_EQ(FaultSchedule::Parse("bogus_key=1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultSchedule::Parse("write_every=abc").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultSchedule::Parse("read_p=1.5").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultSchedule::Parse("no_equals_sign").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultScheduleTest, ToStringRoundTrips) {
  auto s = FaultSchedule::Parse("seed=9,read_every=3,transient=1");
  ASSERT_TRUE(s.ok());
  auto again = FaultSchedule::Parse(s->ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->seed, 9u);
  EXPECT_EQ(again->read_every, 3u);
  EXPECT_EQ(again->transient, 1u);
}

// ---------------------------------------------------------------------
// Backend factory (the CLI's --backend surface).

TEST(IoBackendFactoryTest, KnownKindsAndRejection) {
  auto mem = MakeIoBackend("mem", "");
  ASSERT_TRUE(mem.ok());
  EXPECT_STREQ((*mem)->name(), "mem");
  EXPECT_EQ(MakeIoBackend("tape", "x").status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// DiskManager over a FaultInjectingBackend: retry, checksum, exhaustion.

struct FaultRig {
  std::unique_ptr<DiskManager> dm;
  FaultInjectingBackend* fb = nullptr;  // owned by dm
};

FaultRig MakeFaultRig() {
  auto fault = std::make_unique<FaultInjectingBackend>(
      std::make_unique<MemIoBackend>(), FaultSchedule{});
  FaultRig rig;
  rig.fb = fault.get();
  auto dm = DiskManager::OpenWithBackend(std::move(fault),
                                         /*restore_frontier=*/false);
  EXPECT_TRUE(dm.ok());
  rig.dm.reset(*dm);
  return rig;
}

FaultSchedule MustParse(const std::string& spec) {
  auto s = FaultSchedule::Parse(spec);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return *s;
}

TEST(FaultInjectionTest, TransientWriteFaultsAbsorbedByRetry) {
  FaultRig rig = MakeFaultRig();
  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  // Every 5th write attempt starts a burst of 2 failures: 3 attempts of
  // the 4-attempt budget, so every logical write still succeeds.
  rig.fb->Arm(MustParse("write_every=5,transient=2"));
  char out[kPageSize], in[kPageSize];
  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) {
    auto pid = rig.dm->AllocatePage();
    ASSERT_TRUE(pid.ok());
    std::memset(out, 'a' + i, kPageSize);
    ASSERT_TRUE(rig.dm->WritePage(*pid, out).ok()) << i;
    pages.push_back(*pid);
  }
  rig.fb->Disarm();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rig.dm->ReadPage(pages[i], in).ok());
    EXPECT_EQ(in[17], 'a' + i);
  }
  EXPECT_GT(rig.fb->faults_injected(), 0u);
  auto snap = reg.Snapshot();
  EXPECT_GT(snap.counter(obs::Counter::kIoRetries), 0u);
  EXPECT_GT(snap.counter(obs::Counter::kIoFaultsInjected), 0u);
  EXPECT_EQ(snap.counter(obs::Counter::kIoChecksumFailures), 0u);
}

TEST(FaultInjectionTest, StickyFaultExhaustsRetriesAndLatches) {
  FaultRig rig = MakeFaultRig();
  auto pid = rig.dm->AllocatePage();
  ASSERT_TRUE(pid.ok());
  char buf[kPageSize] = {};
  // transient=0: the first triggered write fails permanently.
  rig.fb->Arm(MustParse("write_every=1,transient=0"));
  Status st = rig.dm->WritePage(*pid, buf);
  EXPECT_EQ(st.code(), StatusCode::kRetryExhausted) << st.ToString();
  // Latched: later writes fail too, without re-triggering.
  EXPECT_EQ(rig.dm->WritePage(*pid, buf).code(), StatusCode::kRetryExhausted);
  // Re-arming clears the latch.
  rig.fb->Disarm();
  EXPECT_TRUE(rig.dm->WritePage(*pid, buf).ok());
}

TEST(FaultInjectionTest, RetryPolicyBoundsAttempts) {
  FaultRig rig = MakeFaultRig();
  RetryPolicy tight;
  tight.max_attempts = 2;
  tight.backoff_initial_us = 0;
  rig.dm->set_retry_policy(tight);
  auto pid = rig.dm->AllocatePage();
  ASSERT_TRUE(pid.ok());
  rig.fb->Arm(MustParse("write_every=1,transient=0"));
  char buf[kPageSize] = {};
  EXPECT_EQ(rig.dm->WritePage(*pid, buf).code(), StatusCode::kRetryExhausted);
  // Exactly max_attempts backend attempts were faulted.
  EXPECT_EQ(rig.fb->faults_injected(), 2u);
}

TEST(FaultInjectionTest, TornWriteDetectedAsCorruptionOnRead) {
  FaultRig rig = MakeFaultRig();
  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  auto pid = rig.dm->AllocatePage();
  ASSERT_TRUE(pid.ok());
  char out[kPageSize], in[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) out[i] = static_cast<char>(i * 13 + 1);
  // The torn write *reports success*; only the checksum catches it.
  rig.fb->Arm(MustParse("write_every=1,transient=1,torn_writes=1"));
  ASSERT_TRUE(rig.dm->WritePage(*pid, out).ok());
  rig.fb->Disarm();
  Status st = rig.dm->ReadPage(*pid, in);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  auto snap = reg.Snapshot();
  EXPECT_GE(snap.counter(obs::Counter::kIoChecksumFailures), 1u);
  // Corruption is not retried: the same bytes would come back.
  EXPECT_EQ(snap.counter(obs::Counter::kIoRetries), 0u);
}

TEST(FaultInjectionTest, ShortReadDetectedAsCorruption) {
  FaultRig rig = MakeFaultRig();
  auto pid = rig.dm->AllocatePage();
  ASSERT_TRUE(pid.ok());
  char out[kPageSize], in[kPageSize];
  std::memset(out, 0x5A, kPageSize);  // nonzero tail, else the zeroed
                                      // short read would be a no-op
  ASSERT_TRUE(rig.dm->WritePage(*pid, out).ok());
  rig.fb->Arm(MustParse("read_every=1,transient=1,short_reads=1"));
  EXPECT_EQ(rig.dm->ReadPage(*pid, in).code(), StatusCode::kCorruption);
  rig.fb->Disarm();
  // The stored bytes are intact; a clean read still succeeds.
  ASSERT_TRUE(rig.dm->ReadPage(*pid, in).ok());
  EXPECT_EQ(0, std::memcmp(out, in, kPageSize));
}

TEST(FaultInjectionTest, DeterministicAcrossRuns) {
  // Identical schedule, identical operation sequence → identical fault
  // count. This is the property the CI fault job relies on.
  auto run_once = [] {
    FaultRig rig = MakeFaultRig();
    rig.fb->Arm(MustParse("seed=42,write_p=0.3,transient=1"));
    char buf[kPageSize] = {'x'};
    for (int i = 0; i < 50; ++i) {
      auto pid = rig.dm->AllocatePage();
      EXPECT_TRUE(pid.ok());
      EXPECT_TRUE(rig.dm->WritePage(*pid, buf).ok());
    }
    return rig.fb->faults_injected();
  };
  uint64_t first = run_once();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, run_once());
}

// ---------------------------------------------------------------------
// End-to-end: containment joins over fault-injecting devices.
//
// A case names the algorithm (with MHCJ+Rollup's height policy), the
// page codec of the input sets — explicit, so PBITREE_PAGE_CODEC changes
// nothing here — and the way the join runs: RunJoin over one pool
// (segment level 0), or RunSegmentedJoin over a level-1 segment store on
// one or two threads. Every device of a run (the one file, or the main
// file and each segment file) faults on the same schedule, and the leak
// checks cover every pool.

constexpr int kTreeHeight = 16;
// Small enough that every case evicts, and so writes and re-reads its
// scratch pages, under both codecs; FoR-delta inputs take fewer pages.
constexpr size_t kPoolPages = 16;
// Input sizes: large enough that each half of a level-1 store still
// makes every algorithm write scratch pages under both codecs.
constexpr int kAncestors = 8000;
constexpr int kDescendants = 12000;

struct FaultJoinCase {
  Algorithm algorithm;
  RollupHeightPolicy rollup;
  int segment_level;  // 0: RunJoin over one unsegmented pool
  PageCodecKind codec;
  uint8_t threads;
};

void PrintTo(const FaultJoinCase& c, std::ostream* os) {
  PrintZeroPadded(c, os, &FaultJoinCase::algorithm, &FaultJoinCase::rollup,
                  &FaultJoinCase::segment_level, &FaultJoinCase::codec,
                  &FaultJoinCase::threads);
}

// `_t1` is the unsegmented run and `_t2` the two-thread fan-out, which is
// always segmented; `_l1_t1` is the segmented run on one thread.
std::string FaultCaseName(const ::testing::TestParamInfo<FaultJoinCase>& info) {
  const FaultJoinCase& c = info.param;
  std::string n = AlgorithmName(c.algorithm);
  for (char& ch : n) {
    if (ch == '+') ch = 'P';
  }
  if (c.rollup == RollupHeightPolicy::kMedian) n += "Median";
  if (c.segment_level > 0 && c.threads == 1) n += "_l1";
  n += "_t" + std::to_string(c.threads);
  if (c.codec == PageCodecKind::kFoRDelta) n += "_FoRDelta";
  return n;
}

std::vector<FaultJoinCase> FaultMatrix() {
  std::vector<FaultJoinCase> cases;
  for (PageCodecKind codec : {PageCodecKind::kRaw, PageCodecKind::kFoRDelta}) {
    for (auto [level, threads] : {std::pair{0, 1}, {1, 1}, {1, 2}}) {
      for (Algorithm alg : {Algorithm::kMhcj, Algorithm::kMhcjRollup,
                            Algorithm::kVpj, Algorithm::kInljn,
                            Algorithm::kStackTree, Algorithm::kMpmgjn,
                            Algorithm::kAdb}) {
        cases.push_back({alg, RollupHeightPolicy::kMax, level, codec,
                         static_cast<uint8_t>(threads)});
      }
      // The median split writes two scratch copies of A first.
      cases.push_back({Algorithm::kMhcjRollup, RollupHeightPolicy::kMedian,
                       level, codec, static_cast<uint8_t>(threads)});
    }
  }
  return cases;
}

class FaultInjectionJoinTest : public ::testing::TestWithParam<FaultJoinCase> {
 protected:
  void SetUp() override {
    const FaultJoinCase& c = GetParam();
    Random rng(1234);
    a_codes_ = RandomCodes(&rng, kAncestors, 1, kTreeHeight - 1);
    d_codes_ = RandomCodes(&rng, kDescendants, 0, kTreeHeight - 2);
    // Every case draws the same inputs: compute the answer once.
    static const std::vector<ResultPair> kExpect =
        Expected(a_codes_, d_codes_);
    expect_ = kExpect;

    auto make_backend =
        [this](const std::string&) -> StatusOr<std::unique_ptr<IoBackend>> {
      auto fault = std::make_unique<FaultInjectingBackend>(
          std::make_unique<MemIoBackend>(), FaultSchedule{});
      backends_.push_back(fault.get());
      return std::unique_ptr<IoBackend>(std::move(fault));
    };
    if (c.segment_level == 0) {
      auto dm = DiskManager::OpenWithBackend(make_backend("").value(),
                                             /*restore_frontier=*/false);
      ASSERT_TRUE(dm.ok());
      disk_.reset(*dm);
      bm_ = std::make_unique<BufferManager>(disk_.get(), kPoolPages);
      a_ = MakeSet(bm_.get(), a_codes_);
      d_ = MakeSet(bm_.get(), d_codes_);
      pools_ = {bm_.get()};
    } else {
      SegmentStore::Options opts;
      opts.backend = "mem";
      opts.pool_pages = kPoolPages;
      opts.create_level = c.segment_level;
      opts.page_codec = c.codec;
      opts.make_backend = make_backend;
      auto store = SegmentStore::Open(opts);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      store_ = std::move(*store);
      std::unique_ptr<DiskManager> src_disk(DiskManager::OpenInMemory());
      BufferManager src_bm(src_disk.get(), 64);
      ASSERT_TRUE(
          store_->StoreSet("a", MakeSet(&src_bm, a_codes_), &src_bm).ok());
      ASSERT_TRUE(
          store_->StoreSet("d", MakeSet(&src_bm, d_codes_), &src_bm).ok());
      auto a = store_->Load("a");
      auto d = store_->Load("d");
      ASSERT_TRUE(a.ok() && d.ok());
      seg_a_ = *a;
      seg_d_ = *d;
      pools_ = {store_->main_bm()};
      for (size_t k = 0; k < store_->num_segments(); ++k) {
        pools_.push_back(store_->segment_bm(k));
      }
    }
    // Inputs reach the devices now, so every faulted write is the
    // join's own.
    for (BufferManager* bm : pools_) {
      ASSERT_TRUE(bm->FlushAll().ok());
      baseline_live_.push_back(bm->disk()->num_live_pages());
    }
  }

  void TearDown() override { Disarm(); }

  ElementSet MakeSet(BufferManager* bm, const std::vector<Code>& codes) {
    auto builder = ElementSetBuilder::Create(bm, PBiTreeSpec{kTreeHeight},
                                             GetParam().codec);
    EXPECT_TRUE(builder.ok());
    for (Code c : codes) EXPECT_TRUE(builder->AddCode(c).ok());
    auto built = builder->Build();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.value_or(ElementSet{});
  }

  std::vector<Code> RandomCodes(Random* rng, int n, int min_height,
                                int max_height) {
    std::vector<Code> out;
    std::set<Code> seen;
    PBiTreeSpec spec{kTreeHeight};
    while (static_cast<int>(out.size()) < n) {
      Code c = rng->UniformRange(1, spec.MaxCode());
      int h = HeightOf(c);
      if (h < min_height || h > max_height) continue;
      if (seen.insert(c).second) out.push_back(c);
    }
    return out;
  }

  /// Every (a, d) pair, found by walking each d's ancestors — the
  /// PBiTree gives one per height above d's — and checked with the
  /// Lemma-1 predicate.
  static std::vector<ResultPair> Expected(const std::vector<Code>& a,
                                          const std::vector<Code>& d) {
    const std::set<Code> ancestors(a.begin(), a.end());
    std::vector<ResultPair> out;
    for (Code y : d) {
      for (int h = HeightOf(y) + 1; h < kTreeHeight; ++h) {
        const Code x = AncestorAtHeight(y, h);
        if (ancestors.count(x) != 0 && IsAncestor(x, y)) {
          out.push_back(ResultPair{x, y});
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  StatusOr<RunResult> Run(ResultSink* sink) {
    RunOptions o;
    o.work_pages = 8;  // tiny budget: partitioning + temp files guaranteed
    o.threads = GetParam().threads;
    o.rollup_policy = GetParam().rollup;
    if (store_ == nullptr) {
      return RunJoin(GetParam().algorithm, bm_.get(), a_, d_, sink, o);
    }
    return RunSegmentedJoin(GetParam().algorithm, store_->main_bm(), seg_a_,
                            seg_d_, sink, o);
  }

  void Arm(const std::string& spec) {
    for (FaultInjectingBackend* fb : backends_) fb->Arm(MustParse(spec));
  }
  void Disarm() {
    for (FaultInjectingBackend* fb : backends_) fb->Disarm();
  }
  uint64_t FaultsInjected() const {
    uint64_t n = 0;
    for (const FaultInjectingBackend* fb : backends_) n += fb->faults_injected();
    return n;
  }

  /// Cold pools make every run issue the same writes to each device.
  Status PurgeAll() {
    for (BufferManager* bm : pools_) PBITREE_RETURN_IF_ERROR(bm->PurgeAll());
    return Status::OK();
  }

  /// Page writes each device has taken so far.
  std::vector<uint64_t> DeviceWrites() const {
    std::vector<uint64_t> out;
    for (BufferManager* bm : pools_) out.push_back(bm->disk()->stats().page_writes);
    return out;
  }

  /// No frame pinned and no page beyond the inputs live, in every pool.
  ::testing::AssertionResult NoLeaks() const {
    for (size_t i = 0; i < pools_.size(); ++i) {
      const uint64_t pinned = pools_[i]->PinnedFrames();
      const uint64_t live = pools_[i]->disk()->num_live_pages();
      if (pinned != 0 || live != baseline_live_[i]) {
        return ::testing::AssertionFailure()
               << "pool " << i << ": " << pinned << " frames pinned, " << live
               << " pages live, " << baseline_live_[i] << " expected";
      }
    }
    return ::testing::AssertionSuccess();
  }

  std::vector<FaultInjectingBackend*> backends_;  // owned by the disks
  std::unique_ptr<DiskManager> disk_;             // segment level 0
  std::unique_ptr<BufferManager> bm_;
  ElementSet a_, d_;
  std::unique_ptr<SegmentStore> store_;  // segment level 1
  SegmentedSet seg_a_, seg_d_;
  std::vector<BufferManager*> pools_;
  std::vector<uint64_t> baseline_live_;
  std::vector<Code> a_codes_, d_codes_;
  std::vector<ResultPair> expect_;
};

TEST_P(FaultInjectionJoinTest, TransientFaultsYieldCorrectResults) {
  // read_every/write_every chosen so a burst of `transient` failures
  // plus the sated attempt fits in the default 4-attempt budget.
  Arm("write_every=9,read_every=11,transient=2");
  VectorSink collected;
  VerifyingSink sink(&collected);
  auto run = Run(&sink);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Disarm();

  collected.Sort();
  ASSERT_EQ(collected.pairs().size(), expect_.size());
  EXPECT_EQ(collected.pairs(), expect_);
  EXPECT_GT(FaultsInjected(), 0u);
  EXPECT_GT(run->metrics.counter(obs::Counter::kIoRetries), 0u);
  EXPECT_GT(run->metrics.counter(obs::Counter::kIoFaultsInjected), 0u);
  EXPECT_TRUE(NoLeaks());
}

TEST_P(FaultInjectionJoinTest, PermanentFaultFailsRunWithoutLeaks) {
  // Sticky fault on the 25th write: partitioning trips it, every retry
  // fails, and the error must surface through Run with all buffer
  // frames unpinned and every temp page freed.
  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  Arm("write_every=25,transient=0");
  VectorSink collected;
  auto run = Run(&collected);
  Disarm();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kRetryExhausted)
      << run.status().ToString();
  EXPECT_TRUE(NoLeaks());
  EXPECT_GT(reg.Snapshot().counter(obs::Counter::kIoFaultsInjected), 0u);
}

TEST_P(FaultInjectionJoinTest, TornWritesSurfaceAsCorruption) {
  // Every write lands torn but reports success; the first evicted temp
  // page read back from a device fails its checksum. Every pool is far
  // smaller than the scratch files, so a re-read is guaranteed.
  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  Arm("write_every=1,transient=1,torn_writes=1");
  VectorSink collected;
  auto run = Run(&collected);
  Disarm();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCorruption)
      << run.status().ToString();
  EXPECT_GE(reg.Snapshot().counter(obs::Counter::kIoChecksumFailures), 1u);
  EXPECT_TRUE(NoLeaks());
}

TEST_P(FaultInjectionJoinTest, PermanentFaultSweepLeavesNoPinsOrPages) {
  // A sticky write fault at positions strided across the whole run, on
  // every device: wherever the run dies (sorting, index build,
  // partitioning, the replica filter, the join, a spill, the final
  // flush), it must unpin every frame and free every temp page in every
  // pool — the sorted copies and indexes built on the fly included.
  ASSERT_TRUE(PurgeAll().ok());
  const std::vector<uint64_t> before = DeviceWrites();
  CountingSink clean_sink;
  auto clean = Run(&clean_sink);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean_sink.count(), expect_.size());
  // The device that takes the most writes bounds the positions a fault
  // can reach. Only devices with a fixed write sequence count: the one
  // pool, or each segment pool. A store's main pool takes the spills of
  // both threads in whatever order they come.
  const std::vector<uint64_t> after = DeviceWrites();
  uint64_t writes = 0;
  for (size_t i = store_ == nullptr ? 0 : 1; i < after.size(); ++i) {
    writes = std::max(writes, after[i] - before[i]);
  }
  ASSERT_GT(writes, 0u);
  const uint64_t stride = std::max<uint64_t>(1, writes / 16);
  for (uint64_t at = 1; at <= writes; at += stride) {
    ASSERT_TRUE(PurgeAll().ok());
    Arm("write_every=" + std::to_string(at) + ",transient=0");
    CountingSink sink;
    auto run = Run(&sink);
    Disarm();
    ASSERT_FALSE(run.ok()) << "write " << at;
    EXPECT_EQ(run.status().code(), StatusCode::kRetryExhausted)
        << "write " << at << ": " << run.status().ToString();
    ASSERT_TRUE(NoLeaks()) << "write " << at;
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, FaultInjectionJoinTest,
                         ::testing::ValuesIn(FaultMatrix()), FaultCaseName);

// The sorts of STACKTREE and ADB+ at this budget write several runs per
// input and stream their final merges into the join or the index bulk
// load, so the runs live until the consumer is done. A sticky write
// fault at every single write position must still leave no frame
// pinned and no page allocated.
using MultiRunSortFaultTest = FaultInjectionJoinTest;

TEST_P(MultiRunSortFaultTest, StickyFaultAtEveryWriteLeavesNoPinsOrPages) {
  ASSERT_TRUE(PurgeAll().ok());
  const uint64_t before = DeviceWrites()[0];
  CountingSink clean_sink;
  auto clean = Run(&clean_sink);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean_sink.count(), expect_.size());
  // More runs than inputs: the sorts are multi-run.
  ASSERT_GT(clean->metrics.counter(obs::Counter::kSortRuns), 2u);
  const uint64_t writes = DeviceWrites()[0] - before;
  ASSERT_GT(writes, 0u);
  for (uint64_t at = 1; at <= writes; ++at) {
    ASSERT_TRUE(PurgeAll().ok());
    Arm("write_every=" + std::to_string(at) + ",transient=0");
    CountingSink sink;
    auto run = Run(&sink);
    Disarm();
    ASSERT_FALSE(run.ok()) << "write " << at;
    EXPECT_EQ(run.status().code(), StatusCode::kRetryExhausted)
        << "write " << at << ": " << run.status().ToString();
    ASSERT_TRUE(NoLeaks()) << "write " << at;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sorts, MultiRunSortFaultTest,
    ::testing::Values(
        FaultJoinCase{Algorithm::kStackTree, RollupHeightPolicy::kMax, 0,
                      PageCodecKind::kRaw, 1},
        FaultJoinCase{Algorithm::kStackTree, RollupHeightPolicy::kMax, 0,
                      PageCodecKind::kFoRDelta, 1},
        FaultJoinCase{Algorithm::kAdb, RollupHeightPolicy::kMax, 0,
                      PageCodecKind::kRaw, 1},
        FaultJoinCase{Algorithm::kAdb, RollupHeightPolicy::kMax, 0,
                      PageCodecKind::kFoRDelta, 1}),
    FaultCaseName);

}  // namespace
}  // namespace pbitree
