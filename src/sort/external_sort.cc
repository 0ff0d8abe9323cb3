#include "sort/external_sort.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>

#include "obs/metrics.h"

namespace pbitree {

namespace {

constexpr size_t kRecordsPerPage = HeapFile::kRecordsPerPage;

/// Pages of memory `records` records take.
uint64_t PagesOf(uint64_t records) {
  return (records + kRecordsPerPage - 1) / kRecordsPerPage;
}

/// (doc, tag) packed so that integer order is the tie-break order.
uint64_t TieOf(const ElementRecord& r) {
  return (static_cast<uint64_t>(r.doc) << 32) | r.tag;
}

// ---------------------------------------------------------------------
// In-place MSD radix sort on the key, then (doc, tag).
//
// The digits come from a radix key whose order agrees with the sort key
// but may tie where it does not (for document order, Start − 1 =
// code & (code − 1), which skips DocKey's popcount); buckets that end
// up small, or share every radix digit, are finished on the full order.

constexpr size_t kSmallSort = 32;

/// Full order of two records: key, then (doc, tag).
template <typename KeyFn>
bool KeyLess(const ElementRecord& a, const ElementRecord& b, KeyFn key) {
  const uint64_t ka = key(a), kb = key(b);
  return ka != kb ? ka < kb : TieOf(a) < TieOf(b);
}

template <typename KeyFn>
void InsertionSort(ElementRecord* first, size_t n, KeyFn key) {
  for (size_t i = 1; i < n; ++i) {
    const ElementRecord r = first[i];
    size_t j = i;
    for (; j > 0 && KeyLess(r, first[j - 1], key); --j) first[j] = first[j - 1];
    first[j] = r;
  }
}

/// Orders records that share every radix digit by the full order.
template <typename KeyFn>
void SortByKey(ElementRecord* first, size_t n, KeyFn key) {
  if (n <= kSmallSort) return InsertionSort(first, n, key);
  std::sort(first, first + n, [&](const ElementRecord& a, const ElementRecord& b) {
    return KeyLess(a, b, key);
  });
}

/// American-flag sort of `first[0, n)` on the radix-key byte at `shift`
/// and every lower one. Radix keys agree on all bits above `shift + 8`.
template <typename RadixFn, typename KeyFn>
void RadixSort(ElementRecord* first, size_t n, int shift, RadixFn radix,
               KeyFn key) {
  for (;;) {
    if (n <= kSmallSort) return InsertionSort(first, n, key);
    auto digit = [&](const ElementRecord& r) {
      return static_cast<size_t>((radix(r) >> shift) & 0xff);
    };
    size_t count[256] = {};
    for (size_t i = 0; i < n; ++i) ++count[digit(first[i])];
    if (count[digit(first[0])] == n) {
      // One bucket holds everything: go straight to the next byte.
      if (shift == 0) return SortByKey(first, n, key);
      shift -= 8;
      continue;
    }
    size_t next[256], end[256];
    size_t at = 0;
    for (size_t b = 0; b < 256; ++b) {
      next[b] = at;
      at += count[b];
      end[b] = at;
    }
    for (size_t b = 0; b < 256; ++b) {
      while (next[b] < end[b]) {
        ElementRecord r = first[next[b]];
        for (size_t d = digit(r); d != b; d = digit(r)) {
          std::swap(r, first[next[d]++]);
        }
        first[next[b]++] = r;
      }
    }
    size_t start = 0;
    for (size_t b = 0; b < 256; ++b) {
      if (count[b] > 1) {
        if (shift == 0) {
          SortByKey(first + start, count[b], key);
        } else {
          RadixSort(first + start, count[b], shift - 8, radix, key);
        }
      }
      start += count[b];
    }
    return;
  }
}

/// Sorts `recs` by (SortKey, doc, tag).
void SortRecords(std::span<ElementRecord> recs, SortOrder order) {
  if (recs.size() < 2) return;
  auto sort = [&](auto radix, auto key) {
    uint64_t differ = 0;
    const uint64_t r0 = radix(recs[0]);
    for (const ElementRecord& r : recs) differ |= radix(r) ^ r0;
    const int top_byte = differ == 0 ? 0 : (63 - std::countl_zero(differ)) / 8;
    RadixSort(recs.data(), recs.size(), top_byte * 8, radix, key);
  };
  if (order == SortOrder::kStartOrder) {
    sort([](const ElementRecord& r) { return r.code & (r.code - 1); },
         [](const ElementRecord& r) { return DocKey(r.code); });
  } else {
    auto code = [](const ElementRecord& r) { return r.code; };
    sort(code, code);
  }
}

// ---------------------------------------------------------------------
// Planning: which inputs stay in memory, how many merge passes the
// others make.

/// The most pages a set of streams may hold together under a
/// `work_pages` budget: all but 3, which stay with the consumer. Below 5
/// pages that leaves too little to merge, so 2 may be held.
size_t HoldLimit(size_t work_pages) {
  return work_pages >= 5 ? work_pages - 3 : 2;
}

struct InputPlan {
  uint64_t records = 0;
  bool in_memory = false;
  size_t runs = 0;    // sorted runs left for the final merge
  size_t passes = 0;  // merge passes before it
};

/// Number of `run_pages`-page runs `records` records make.
size_t RunsOf(uint64_t records, size_t run_pages) {
  return static_cast<size_t>(
      (records + run_pages * kRecordsPerPage - 1) / (run_pages * kRecordsPerPage));
}

/// Completes `plans` (in_memory already chosen) with merge passes until
/// everything the streams hold fits `limit`: each pass merges the input
/// with the most runs down by `fan_in`. Returns the pages the sort
/// writes, or UINT64_MAX when no number of passes fits.
uint64_t PlanPasses(std::vector<InputPlan>* plans, size_t work_pages,
                    size_t limit) {
  const size_t fan_in = work_pages - 1;
  uint64_t held = 0;
  for (InputPlan& p : *plans) {
    p.runs = p.in_memory ? 0 : RunsOf(p.records, work_pages);
    p.passes = 0;
    held += p.in_memory ? PagesOf(p.records) : p.runs;
  }
  while (held > limit) {
    InputPlan* most = nullptr;
    for (InputPlan& p : *plans) {
      if (most == nullptr || p.runs > most->runs) most = &p;
    }
    if (most->runs <= 1) return std::numeric_limits<uint64_t>::max();
    const size_t merged = (most->runs + fan_in - 1) / fan_in;
    held -= most->runs - merged;
    most->runs = merged;
    ++most->passes;
  }
  uint64_t writes = 0;
  for (const InputPlan& p : *plans) {
    if (!p.in_memory) writes += PagesOf(p.records) * (1 + p.passes);
  }
  return writes;
}

/// The plan that writes the fewest pages; among equals, the one that
/// keeps the most inputs in memory (the first one found, trying the
/// largest in-memory sets first).
std::vector<InputPlan> PlanSort(const std::vector<uint64_t>& records,
                                size_t work_pages) {
  const size_t limit = HoldLimit(work_pages);
  const size_t n = records.size();
  std::vector<InputPlan> best;
  uint64_t best_writes = std::numeric_limits<uint64_t>::max();
  for (size_t mask = (size_t{1} << n); mask-- > 0;) {
    std::vector<InputPlan> plans(n);
    bool useful = true;
    for (size_t i = 0; i < n; ++i) {
      plans[i].records = records[i];
      plans[i].in_memory = (mask >> i) & 1;
      if (plans[i].in_memory && records[i] == 0) useful = false;
    }
    if (!useful) continue;
    const uint64_t writes = PlanPasses(&plans, work_pages, limit);
    if (writes < best_writes) {
      best_writes = writes;
      best = std::move(plans);
    }
  }
  return best;
}

}  // namespace

// ---------------------------------------------------------------------
// Building streams.

/// Makes the streams ExternalSort returns (a friend of SortedStream).
class StreamBuilder {
 public:
  static SortedStream InMemory(std::vector<ElementRecord> recs,
                               SortOrder order) {
    SortedStream s;
    s.mode_ = SortedStream::Mode::kMemory;
    s.order_ = order;
    s.records_ = std::move(recs);
    s.batch_ = s.records_;
    s.sort_output_ = true;
    return s;
  }

  /// A stream merging `runs`; holds one pinned page of each. One run is
  /// already in order and is scanned in place. The first batch is read
  /// here, inside the caller's sort span; a final merge (ExternalSort's
  /// output) bills each later one, and its Close, to Phase::kSort.
  static StatusOr<SortedStream> Merge(BufferManager* bm,
                                      std::vector<ScratchFile> runs,
                                      SortOrder order, bool final_merge) {
    SortedStream s;
    s.order_ = order;
    s.runs_ = std::move(runs);
    if (s.runs_.size() == 1) {
      s.mode_ = SortedStream::Mode::kScan;
      s.scan_ = std::make_unique<HeapFile::Scanner>(bm, *s.runs_[0]);
    } else {
      s.mode_ = SortedStream::Mode::kMerge;
      s.records_.reserve(kRecordsPerPage);
      for (const ScratchFile& run : s.runs_) {
        auto c = std::make_unique<HeapFile::BatchCursor>(bm, *run);
        PBITREE_RETURN_IF_ERROR(c->status());
        const ElementRecord& r = c->rec();
        s.heap_.push_back({SortKey(r.code, order), TieOf(r),
                           static_cast<uint32_t>(s.cursors_.size())});
        s.cursors_.push_back(std::move(c));
      }
      std::make_heap(s.heap_.begin(), s.heap_.end(), HeapAfter);
    }
    s.Refill();
    PBITREE_RETURN_IF_ERROR(s.status_);
    s.sort_output_ = final_merge;
    return s;
  }

  /// Min-heap order for std::make_heap (a max-heap on "after").
  static bool HeapAfter(const SortedStream::HeapEntry& a,
                        const SortedStream::HeapEntry& b) {
    return a.key != b.key ? a.key > b.key : a.tie > b.tie;
  }
};

SortedStream::~SortedStream() { (void)Close(); }

SortedStream::SortedStream(SortedStream&& o) noexcept { *this = std::move(o); }

SortedStream& SortedStream::operator=(SortedStream&& o) noexcept {
  if (this == &o) return *this;
  (void)Close();
  mode_ = std::exchange(o.mode_, Mode::kDone);
  order_ = o.order_;
  // Moving a vector keeps its buffer, so the batch view stays valid.
  batch_ = std::exchange(o.batch_, {});
  pos_ = std::exchange(o.pos_, 0);
  status_ = std::move(o.status_);
  sort_output_ = std::exchange(o.sort_output_, false);
  records_ = std::move(o.records_);
  scan_ = std::move(o.scan_);
  runs_ = std::move(o.runs_);
  cursors_ = std::move(o.cursors_);
  heap_ = std::move(o.heap_);
  return *this;
}

SortedStream SortedStream::Scan(BufferManager* bm, const HeapFile& file) {
  SortedStream s;
  s.mode_ = Mode::kScan;
  s.scan_ = std::make_unique<HeapFile::Scanner>(bm, file);
  s.Refill();
  return s;
}

size_t SortedStream::held_pages() const {
  // A merge's records_ is its output batch, not a run.
  return runs_.empty() ? static_cast<size_t>(PagesOf(records_.size()))
                       : runs_.size();
}

void SortedStream::SiftDown() {
  const size_t n = heap_.size();
  size_t i = 0;
  const HeapEntry moving = heap_[0];
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && StreamBuilder::HeapAfter(heap_[child], heap_[child + 1])) {
      ++child;
    }
    if (!StreamBuilder::HeapAfter(moving, heap_[child])) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = moving;
}

void SortedStream::Refill() {
  pos_ = 0;
  batch_ = {};
  if (mode_ == Mode::kDone || mode_ == Mode::kMemory) {
    // An in-memory run is one batch; once consumed the stream ends.
    mode_ = Mode::kDone;
    return;
  }
  // One page per refill. ExternalSort's output bills it to the sort; a
  // merge pass runs inside the sort's own span.
  std::optional<obs::ObsSpan> sort_span;
  if (sort_output_) sort_span.emplace(obs::Phase::kSort);
  if (mode_ == Mode::kScan) {
    batch_ = scan_->NextElementBatch();
    if (batch_.empty()) {
      status_ = scan_->status();
      mode_ = Mode::kDone;
    }
    return;
  }
  records_.clear();
  while (!heap_.empty() && records_.size() < kRecordsPerPage) {
    HeapFile::BatchCursor& c = *cursors_[heap_[0].run];
    records_.push_back(c.rec());
    c.Advance();
    if (c.live()) {
      heap_[0].key = SortKey(c.rec().code, order_);
      heap_[0].tie = TieOf(c.rec());
    } else {
      if (!c.status().ok()) {
        status_ = c.status();
        records_.clear();
        heap_.clear();
        break;
      }
      heap_[0] = heap_.back();
      heap_.pop_back();
      if (heap_.empty()) break;
    }
    SiftDown();
  }
  batch_ = records_;
  if (batch_.empty()) mode_ = Mode::kDone;
}

Status SortedStream::Close() {
  // Freeing a sort's memory and runs is part of the sort.
  std::optional<obs::ObsSpan> sort_span;
  if (std::exchange(sort_output_, false)) sort_span.emplace(obs::Phase::kSort);
  batch_ = {};
  pos_ = 0;
  mode_ = Mode::kDone;
  cursors_.clear();  // release the pins before the runs go
  scan_.reset();
  heap_.clear();
  records_ = {};
  for (ScratchFile& run : runs_) PBITREE_RETURN_IF_ERROR(run.Drop());
  runs_.clear();
  return Status::OK();
}

namespace {

/// Sorts one `run_pages`-page chunk at a time of `input` and writes
/// each out as a run.
Status GenerateRuns(BufferManager* bm, const HeapFile& input,
                    size_t run_pages, SortOrder order,
                    std::vector<ScratchFile>* runs) {
  const size_t run_capacity = run_pages * kRecordsPerPage;
  std::vector<ElementRecord> buf;
  buf.reserve(static_cast<size_t>(
      std::min<uint64_t>(run_capacity, input.num_records())));
  HeapFile::Scanner scan(bm, input);
  std::span<const ElementRecord> batch;
  size_t off = 0;
  bool more = true;
  while (more) {
    buf.clear();
    while (buf.size() < run_capacity) {
      if (off >= batch.size()) {
        batch = scan.NextElementBatch();
        off = 0;
        if (batch.empty()) {
          more = false;
          break;
        }
      }
      size_t take = std::min(run_capacity - buf.size(), batch.size() - off);
      buf.insert(buf.end(), batch.begin() + off, batch.begin() + off + take);
      off += take;
    }
    PBITREE_RETURN_IF_ERROR(scan.status());
    if (buf.empty()) break;
    SortRecords(buf, order);
    PBITREE_ASSIGN_OR_RETURN(ScratchFile run, ScratchFile::Create(bm));
    HeapFile::Appender app(bm, run.get());
    PBITREE_RETURN_IF_ERROR(app.AppendElements(buf));
    // Explicit close: a failed tail-page write-back fails the run
    // instead of disappearing in the destructor.
    PBITREE_RETURN_IF_ERROR(app.Finish());
    runs->push_back(std::move(run));
  }
  return Status::OK();
}

/// Reads all of `input` and sorts it in memory.
StatusOr<std::vector<ElementRecord>> SortInMemory(BufferManager* bm,
                                                  const HeapFile& input,
                                                  SortOrder order) {
  std::vector<ElementRecord> recs;
  recs.reserve(static_cast<size_t>(input.num_records()));
  HeapFile::Scanner scan(bm, input);
  for (auto batch = scan.NextElementBatch(); !batch.empty();
       batch = scan.NextElementBatch()) {
    recs.insert(recs.end(), batch.begin(), batch.end());
  }
  PBITREE_RETURN_IF_ERROR(scan.status());
  // Nothing reads the input again, while the consumer of the records
  // (an index bulk load, say) fills the pool with pages it re-reads:
  // let the input's pages go first.
  bm->Unreference(input.pages());
  SortRecords(recs, order);
  return recs;
}

/// One merge pass: merges each group of `fan_in` runs into one.
Status MergePass(BufferManager* bm, size_t fan_in, SortOrder order,
                 std::vector<ScratchFile>* runs) {
  obs::ObsSpan merge_span(obs::Phase::kMerge);
  obs::Count(obs::Counter::kSortMergePasses);
  std::vector<ScratchFile> next;
  for (size_t i = 0; i < runs->size(); i += fan_in) {
    auto group_end = runs->begin() + std::min(runs->size(), i + fan_in);
    PBITREE_ASSIGN_OR_RETURN(ScratchFile out, ScratchFile::Create(bm));
    {
      PBITREE_ASSIGN_OR_RETURN(
          SortedStream merge,
          StreamBuilder::Merge(bm,
                               std::vector<ScratchFile>(
                                   std::make_move_iterator(runs->begin() + i),
                                   std::make_move_iterator(group_end)),
                               order, /*final_merge=*/false));
      HeapFile::Appender app(bm, out.get());
      for (; merge.live(); merge.Advance()) {
        PBITREE_RETURN_IF_ERROR(app.AppendElement(merge.rec()));
      }
      PBITREE_RETURN_IF_ERROR(merge.status());
      PBITREE_RETURN_IF_ERROR(app.Finish());
      PBITREE_RETURN_IF_ERROR(merge.Close());
    }
    next.push_back(std::move(out));
  }
  *runs = std::move(next);
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<SortedStream>> ExternalSort(
    BufferManager* bm, std::span<const HeapFile* const> inputs,
    size_t work_pages, SortOrder order) {
  if (work_pages < 3) {
    return Status::InvalidArgument("ExternalSort needs >= 3 work pages");
  }
  obs::ObsSpan sort_span(obs::Phase::kSort);
  std::vector<uint64_t> records;
  for (const HeapFile* in : inputs) records.push_back(in->num_records());
  const std::vector<InputPlan> plan = PlanSort(records, work_pages);

  // Runs first, with the whole budget: nothing is held yet.
  std::vector<std::vector<ScratchFile>> runs(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (plan[i].in_memory) continue;
    PBITREE_RETURN_IF_ERROR(
        GenerateRuns(bm, *inputs[i], work_pages, order, &runs[i]));
    obs::Count(obs::Counter::kSortRuns, runs[i].size());
    for (size_t p = 0; p < plan[i].passes; ++p) {
      PBITREE_RETURN_IF_ERROR(MergePass(bm, work_pages - 1, order, &runs[i]));
    }
  }
  std::vector<SortedStream> streams;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (plan[i].in_memory) {
      PBITREE_ASSIGN_OR_RETURN(std::vector<ElementRecord> recs,
                               SortInMemory(bm, *inputs[i], order));
      obs::Count(obs::Counter::kSortRuns);
      streams.push_back(StreamBuilder::InMemory(std::move(recs), order));
    } else {
      PBITREE_ASSIGN_OR_RETURN(
          SortedStream s, StreamBuilder::Merge(bm, std::move(runs[i]), order,
                                               /*final_merge=*/true));
      streams.push_back(std::move(s));
    }
  }
  return streams;
}

StatusOr<SortedStream> ExternalSort(BufferManager* bm, const HeapFile& input,
                                    size_t work_pages, SortOrder order) {
  const HeapFile* inputs[] = {&input};
  PBITREE_ASSIGN_OR_RETURN(std::vector<SortedStream> streams,
                           ExternalSort(bm, inputs, work_pages, order));
  return std::move(streams[0]);
}

StatusOr<ScratchFile> SortToFile(BufferManager* bm, const HeapFile& input,
                                 size_t work_pages, SortOrder order) {
  if (work_pages < 3) {
    return Status::InvalidArgument("ExternalSort needs >= 3 work pages");
  }
  obs::ObsSpan sort_span(obs::Phase::kSort);
  std::vector<ScratchFile> runs;
  PBITREE_RETURN_IF_ERROR(GenerateRuns(bm, input, work_pages, order, &runs));
  obs::Count(obs::Counter::kSortRuns, runs.size());
  if (runs.empty()) return ScratchFile::Create(bm);
  while (runs.size() > 1) {
    PBITREE_RETURN_IF_ERROR(MergePass(bm, work_pages - 1, order, &runs));
  }
  return std::move(runs[0]);
}

}  // namespace pbitree
