// Tests for the external merge sort: correctness across run counts and
// memory budgets, both sort orders, the (key, doc, tag) output sequence,
// the document-order tie-break (ancestor before descendant on equal
// Starts), and what the sorted streams write, read and hold.

#include "sort/external_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "framework/runner.h"
#include "obs/metrics.h"
#include "storage/heap_file.h"
#include "zero_padded_printer.h"

namespace pbitree {
namespace {

struct SortCase {
  int num_records;
  size_t work_pages;
};

void PrintTo(const SortCase& c, std::ostream* os) {
  PrintZeroPadded(c, os, &SortCase::num_records, &SortCase::work_pages);
}

class ExternalSortTest : public ::testing::TestWithParam<SortCase> {
 protected:
  void SetUp() override { MakePool(64); }

  void MakePool(size_t frames) {
    bm_.reset();
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), frames);
  }

  HeapFile MakeFile(const std::vector<ElementRecord>& recs) {
    auto file = HeapFile::Create(bm_.get());
    EXPECT_TRUE(file.ok());
    HeapFile::Appender app(bm_.get(), &file.value());
    EXPECT_TRUE(app.AppendElements(recs).ok());
    EXPECT_TRUE(app.Finish().ok());
    return *file;
  }

  HeapFile MakeFile(const std::vector<Code>& codes) {
    std::vector<ElementRecord> recs;
    for (Code c : codes) recs.push_back(ElementRecord{c, 0, 0});
    return MakeFile(recs);
  }

  /// Drains `stream` and closes it.
  static std::vector<ElementRecord> Drain(SortedStream* stream) {
    std::vector<ElementRecord> out;
    for (; stream->live(); stream->Advance()) out.push_back(stream->rec());
    EXPECT_TRUE(stream->status().ok()) << stream->status().ToString();
    EXPECT_TRUE(stream->Close().ok());
    return out;
  }

  static std::vector<Code> CodesOf(const std::vector<ElementRecord>& recs) {
    std::vector<Code> out;
    for (const ElementRecord& r : recs) out.push_back(r.code);
    return out;
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_P(ExternalSortTest, SortsByCodeAcrossBudgets) {
  const auto& param = GetParam();
  Random rng(7);
  std::vector<Code> codes;
  for (int i = 0; i < param.num_records; ++i) {
    codes.push_back(rng.UniformRange(1, 1 << 30));
  }
  HeapFile input = MakeFile(codes);
  auto sorted = ExternalSort(bm_.get(), input, param.work_pages,
                             SortOrder::kCodeOrder);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();

  std::vector<Code> expect = codes;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(CodesOf(Drain(&*sorted)), expect);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

TEST_P(ExternalSortTest, SortsByStartOrder) {
  const auto& param = GetParam();
  Random rng(11);
  std::vector<Code> codes;
  for (int i = 0; i < param.num_records; ++i) {
    codes.push_back(rng.UniformRange(1, (Code{1} << 24) - 1));
  }
  HeapFile input = MakeFile(codes);
  auto sorted = ExternalSort(bm_.get(), input, param.work_pages,
                             SortOrder::kStartOrder);
  ASSERT_TRUE(sorted.ok());
  std::vector<Code> got = CodesOf(Drain(&*sorted));
  EXPECT_EQ(got.size(), codes.size());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), DocLess));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExternalSortTest,
    ::testing::Values(SortCase{0, 3}, SortCase{1, 3}, SortCase{255, 3},
                      SortCase{10000, 3}, SortCase{10000, 4},
                      SortCase{100000, 8}, SortCase{100000, 64}));

using ExternalSortSingleTest = ExternalSortTest;

TEST_F(ExternalSortSingleTest, DocumentOrderPutsAncestorsBeforeDescendants) {
  // Codes 18 (h=1, Start 17) and 17 (h=0, Start 17) tie on Start; the
  // higher node must come first.
  HeapFile input = MakeFile(std::vector<Code>{17, 18, 19, 16, 20});
  auto sorted = ExternalSort(bm_.get(), input, 4, SortOrder::kStartOrder);
  ASSERT_TRUE(sorted.ok());
  // Starts: 16 -> 1 (h=4), 20 -> 17 (h=2), 18 -> 17 (h=1), 17 -> 17,
  // 19 -> 19.
  EXPECT_EQ(CodesOf(Drain(&*sorted)), (std::vector<Code>{16, 20, 18, 17, 19}));
}

TEST_F(ExternalSortSingleTest, RejectsTinyBudget) {
  HeapFile input = MakeFile(std::vector<Code>{1, 2, 3});
  auto sorted = ExternalSort(bm_.get(), input, 2, SortOrder::kCodeOrder);
  EXPECT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExternalSortSingleTest, SortKeyIsTotalOnDistinctCodes) {
  Random rng(13);
  for (int i = 0; i < 2000; ++i) {
    const Code a = rng.UniformRange(1, 1 << 16);
    const Code b = rng.UniformRange(1, 1 << 16);
    EXPECT_EQ(SortKey(a, SortOrder::kCodeOrder) <
                  SortKey(b, SortOrder::kCodeOrder),
              a < b);
    EXPECT_EQ(SortKey(a, SortOrder::kStartOrder) <
                  SortKey(b, SortOrder::kStartOrder),
              DocLess(a, b));
    if (a != b) {
      for (SortOrder order : {SortOrder::kStartOrder, SortOrder::kCodeOrder}) {
        EXPECT_NE(SortKey(a, order), SortKey(b, order));
      }
    }
  }
}

TEST_F(ExternalSortSingleTest, DuplicateCodesComeOutByKeyDocTag) {
  // Few distinct codes, so most records share a key with others that
  // differ in doc and tag; the output must be exactly the (key, doc,
  // tag) order, in memory, from one merge and after merge passes.
  Random rng(5);
  std::vector<ElementRecord> recs;
  for (int i = 0; i < 6000; ++i) {
    recs.push_back(ElementRecord{rng.UniformRange(1, 300),
                                 static_cast<uint32_t>(rng.Uniform(3)),
                                 static_cast<uint32_t>(rng.Uniform(4))});
  }
  HeapFile input = MakeFile(recs);
  for (SortOrder order : {SortOrder::kStartOrder, SortOrder::kCodeOrder}) {
    std::vector<ElementRecord> expect = recs;
    std::sort(expect.begin(), expect.end(),
              [order](const ElementRecord& a, const ElementRecord& b) {
                return std::tuple(SortKey(a.code, order), a.doc, a.tag) <
                       std::tuple(SortKey(b.code, order), b.doc, b.tag);
              });
    // 64 pages hold it in memory; 8 merge 3 runs; 3 merge 8 runs in
    // passes down to 2.
    for (size_t work_pages : {64, 8, 3}) {
      auto sorted = ExternalSort(bm_.get(), input, work_pages, order);
      ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
      EXPECT_EQ(Drain(&*sorted), expect) << "work_pages=" << work_pages;
    }
  }
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

/// Page I/O and allocation of `fn`, flushed so every write is counted.
struct IoCount {
  uint64_t reads = 0, writes = 0, allocated = 0;
};
template <typename Fn>
IoCount CountIo(BufferManager* bm, Fn fn) {
  obs::MetricRegistry registry;
  obs::MetricScope scope(&registry);
  fn();
  EXPECT_TRUE(bm->FlushAll().ok());
  const obs::MetricsSnapshot m = registry.Snapshot();
  return {m.counter(obs::Counter::kPageReads),
          m.counter(obs::Counter::kPageWrites),
          m.counter(obs::Counter::kPagesAllocated)};
}

TEST_F(ExternalSortSingleTest, InputThatFitsWritesNoPage) {
  // 10 pages of records under a 16-page budget: sorted in memory.
  Random rng(17);
  std::vector<Code> codes;
  for (size_t i = 0; i < 10 * HeapFile::kRecordsPerPage; ++i) {
    codes.push_back(rng.UniformRange(1, 1 << 20));
  }
  HeapFile input = MakeFile(codes);
  ASSERT_TRUE(bm_->PurgeAll().ok());
  std::vector<Code> got;
  IoCount io = CountIo(bm_.get(), [&] {
    auto sorted = ExternalSort(bm_.get(), input, 16, SortOrder::kStartOrder);
    ASSERT_TRUE(sorted.ok());
    EXPECT_EQ(sorted->held_pages(), 10u);
    got = CodesOf(Drain(&*sorted));
  });
  EXPECT_EQ(got.size(), codes.size());
  EXPECT_EQ(io.writes, 0u);
  EXPECT_EQ(io.allocated, 0u);
  EXPECT_EQ(io.reads, input.num_pages());
}

TEST_F(ExternalSortSingleTest, RunsAreWrittenOnceReadOnceAndNoCopyIsMade) {
  // Four 8-page runs on a 16-frame pool, so the runs leave the pool and
  // come back: each run page is allocated and written once and read
  // once by the streamed merge, and no sorted copy is allocated.
  constexpr size_t kWork = 8;
  MakePool(kWork + 8);
  Random rng(19);
  std::vector<Code> codes;
  for (size_t i = 0; i < 4 * kWork * HeapFile::kRecordsPerPage; ++i) {
    codes.push_back(rng.UniformRange(1, uint64_t{1} << 40));
  }
  HeapFile input = MakeFile(codes);
  ASSERT_TRUE(bm_->PurgeAll().ok());
  std::vector<Code> got;
  IoCount io = CountIo(bm_.get(), [&] {
    auto sorted = ExternalSort(bm_.get(), input, kWork, SortOrder::kCodeOrder);
    ASSERT_TRUE(sorted.ok());
    EXPECT_EQ(sorted->held_pages(), 4u);  // one pinned page per run
    got = CodesOf(Drain(&*sorted));
  });
  std::vector<Code> expect = codes;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);
  const uint64_t run_pages = 4 * kWork;
  EXPECT_EQ(io.allocated, run_pages);
  EXPECT_GT(io.writes, 0u);
  EXPECT_LE(io.writes, run_pages);
  // Beyond the input, the merge reads each run page at most once.
  EXPECT_GE(io.reads, input.num_pages());
  EXPECT_LE(io.reads, input.num_pages() + run_pages);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

TEST_F(ExternalSortSingleTest, TwoStreamsShareOneBudget) {
  // STACKTREE over two inputs of 0.8x the budget each: one is held in
  // memory, the other is written as one run, and together they never
  // hold more than the budget.
  constexpr size_t kWork = 20;
  MakePool(kWork + 8);
  const PBiTreeSpec spec{20};
  Random rng(23);
  const size_t n = kWork * 8 / 10 * HeapFile::kRecordsPerPage;
  std::vector<Code> a_codes, d_codes;
  auto build = [&](std::vector<Code>* codes, int min_height) {
    auto b = ElementSetBuilder::Create(bm_.get(), spec, PageCodecKind::kRaw);
    EXPECT_TRUE(b.ok());
    while (codes->size() < n) {
      const Code c = rng.UniformRange(1, spec.MaxCode());
      if (HeightOf(c) < min_height) continue;
      codes->push_back(c);
      EXPECT_TRUE(b->AddCode(c).ok());
    }
    auto set = b->Build();
    EXPECT_TRUE(set.ok());
    return *set;
  };
  ElementSet a = build(&a_codes, 6);
  ElementSet d = build(&d_codes, 0);

  {
    const HeapFile* inputs[] = {&a.file, &d.file};
    auto streams = ExternalSort(bm_.get(), inputs, kWork, SortOrder::kStartOrder);
    ASSERT_TRUE(streams.ok());
    const size_t held = (*streams)[0].held_pages() + (*streams)[1].held_pages();
    EXPECT_LE(held, kWork);
    EXPECT_EQ(held, kWork * 8 / 10 + 1);  // one side in memory, one run
  }

  uint64_t expected = 0;
  for (Code x : a_codes) {
    for (Code y : d_codes) expected += IsAncestor(x, y);
  }
  RunOptions opts;
  opts.work_pages = kWork;
  opts.cold_cache = true;
  CountingSink sink;
  auto run = RunJoin(Algorithm::kStackTree, bm_.get(), a, d, &sink, opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->output_pairs, expected);
  // Only the side that did not fit is written, as one run, and read
  // back at most once.
  EXPECT_EQ(run->metrics.counter(obs::Counter::kPagesAllocated), kWork * 8 / 10);
  EXPECT_LE(run->page_writes, kWork * 8 / 10);
  EXPECT_LE(run->page_reads, a.num_pages() + d.num_pages() + kWork * 8 / 10);
}

}  // namespace
}  // namespace pbitree
