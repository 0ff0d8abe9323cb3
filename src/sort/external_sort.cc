#include "sort/external_sort.h"

#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "obs/metrics.h"

namespace pbitree {

bool ElementLess(const ElementRecord& a, const ElementRecord& b,
                 SortOrder order) {
  if (order == SortOrder::kCodeOrder) return a.code < b.code;
  uint64_t sa = StartOf(a.code);
  uint64_t sb = StartOf(b.code);
  if (sa != sb) return sa < sb;
  // Equal Start: the higher node is the ancestor and must come first.
  return HeightOf(a.code) > HeightOf(b.code);
}

namespace {

/// Sorts one chunk in memory and writes it out as a run.
Status SortAndWriteRun(BufferManager* bm, std::vector<ElementRecord>* buf,
                       SortOrder order, HeapFile* out) {
  std::sort(buf->begin(), buf->end(),
            [order](const ElementRecord& a, const ElementRecord& b) {
              return ElementLess(a, b, order);
            });
  PBITREE_ASSIGN_OR_RETURN(HeapFile run, HeapFile::Create(bm));
  Status st;
  {
    HeapFile::Appender app(bm, &run);
    st = app.AppendElements(*buf);
    // Explicit close: a failed tail-page write-back fails the run
    // instead of disappearing in the destructor.
    if (st.ok()) st = app.Finish();
  }
  if (!st.ok()) {
    run.Drop(bm);  // best effort: the append error is the one to report
    return st;
  }
  *out = run;
  return Status::OK();
}

/// Generates sorted runs of at most `work_pages` pages each (split
/// across in-flight chunks when a pool is attached).
Status GenerateRuns(BufferManager* bm, const HeapFile& input,
                    size_t work_pages, SortOrder order, ExecContext* exec,
                    std::vector<HeapFile>* runs) {
  const size_t workers =
      (exec != nullptr && exec->pool() != nullptr) ? exec->threads() : 1;

  if (workers == 1) {
    const size_t run_capacity = work_pages * HeapFile::kRecordsPerPage;
    std::vector<ElementRecord> buf;
    buf.reserve(std::min<size_t>(run_capacity, 1 << 20));

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
      HeapFile run;
      PBITREE_RETURN_IF_ERROR(SortAndWriteRun(bm, &buf, order, &run));
      runs->push_back(run);
    }
    return Status::OK();
  }

  // Parallel run generation: the scan is inherently sequential (one
  // page chain, one cursor), but each chunk's sort + write-out is an
  // independent pool task. The budget is split so the `workers` chunks
  // in flight together stay within work_pages; deques keep element
  // addresses stable while the producer keeps appending slots.
  const size_t run_capacity =
      ExecContext::SplitBudget(work_pages, workers) * HeapFile::kRecordsPerPage;
  ThreadPool* pool = exec->pool();
  std::deque<HeapFile> chunk_runs;
  std::deque<Status> chunk_status;
  std::deque<std::future<void>> inflight;

  HeapFile::Scanner scan(bm, input);
  std::span<const ElementRecord> batch;
  size_t off = 0;
  bool more = true;
  while (more) {
    auto buf = std::make_shared<std::vector<ElementRecord>>();
    buf->reserve(run_capacity);
    while (buf->size() < run_capacity) {
      if (off >= batch.size()) {
        batch = scan.NextElementBatch();
        off = 0;
        if (batch.empty()) {
          more = false;
          break;
        }
      }
      size_t take = std::min(run_capacity - buf->size(), batch.size() - off);
      buf->insert(buf->end(), batch.begin() + off, batch.begin() + off + take);
      off += take;
    }
    // On a scan error fall through to the Wait below — returning here
    // would destroy the deques while in-flight tasks still write them.
    if (!scan.status().ok() || buf->empty()) break;
    chunk_runs.emplace_back();
    chunk_status.emplace_back();
    HeapFile* out = &chunk_runs.back();
    Status* out_st = &chunk_status.back();
    inflight.push_back(pool->Submit([bm, buf, order, out, out_st] {
      *out_st = SortAndWriteRun(bm, buf.get(), order, out);
    }));
    if (inflight.size() >= workers) {
      pool->Wait(inflight.front());
      inflight.pop_front();
    }
  }
  for (std::future<void>& f : inflight) pool->Wait(f);

  Status result = scan.status();
  for (size_t i = 0; i < chunk_runs.size(); ++i) {
    if (!chunk_status[i].ok() && result.ok()) result = chunk_status[i];
    // Completed runs are handed to the caller even on error, so its
    // cleanup path can drop them.
    if (chunk_runs[i].valid()) runs->push_back(chunk_runs[i]);
  }
  return result;
}

/// Merges `inputs` into one run; drops the inputs afterwards.
Result<HeapFile> MergeRuns(BufferManager* bm, std::vector<HeapFile>* inputs,
                           SortOrder order) {
  std::vector<std::unique_ptr<HeapFile::BatchCursor>> cursors;
  cursors.reserve(inputs->size());
  Status st;
  // Contract: the inputs are consumed whatever happens — on error they
  // are dropped here so the caller never holds dangling temp files.
  auto fail = [&](Status keep) -> Status {
    for (auto& c : cursors) c.reset();  // release scan pins
    for (HeapFile& f : *inputs) {
      if (!f.valid()) continue;
      Status s = f.Drop(bm);
      if (keep.ok()) keep = s;
    }
    inputs->clear();
    return keep;
  };
  for (HeapFile& f : *inputs) {
    auto c = std::make_unique<HeapFile::BatchCursor>(bm, f);
    if (!c->status().ok()) {
      Status s = c->status();
      c.reset();
      return fail(s);
    }
    if (c->live()) cursors.push_back(std::move(c));
  }

  auto greater = [order, &cursors](size_t a, size_t b) {
    // Min-heap on the comparator (priority_queue is a max-heap).
    return ElementLess(cursors[b]->rec(), cursors[a]->rec(), order);
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(greater)> heap(greater);
  for (size_t i = 0; i < cursors.size(); ++i) heap.push(i);

  auto created = HeapFile::Create(bm);
  if (!created.ok()) return fail(created.status());
  HeapFile out = std::move(*created);
  {
    HeapFile::Appender app(bm, &out);
    while (!heap.empty()) {
      size_t i = heap.top();
      heap.pop();
      st = app.AppendElement(cursors[i]->rec());
      if (!st.ok()) break;
      cursors[i]->Advance();
      if (cursors[i]->live()) {
        heap.push(i);
      } else if (!cursors[i]->status().ok()) {
        st = cursors[i]->status();
        break;
      }
    }
    if (st.ok()) st = app.Finish();
  }
  if (!st.ok()) {
    Status keep = fail(st);
    out.Drop(bm);  // the half-merged output too
    return keep;
  }
  for (auto& c : cursors) c.reset();
  Status drop_st;
  for (HeapFile& f : *inputs) {
    Status s = f.Drop(bm);
    if (drop_st.ok()) drop_st = s;
  }
  inputs->clear();
  if (!drop_st.ok()) {
    out.Drop(bm);
    return drop_st;
  }
  return out;
}

}  // namespace

Result<HeapFile> ExternalSort(BufferManager* bm, const HeapFile& input,
                              size_t work_pages, SortOrder order,
                              ExecContext* exec) {
  if (work_pages < 3) {
    return Status::InvalidArgument("ExternalSort needs >= 3 work pages");
  }
  obs::ObsSpan sort_span(obs::Phase::kSort);
  std::vector<HeapFile> runs;
  auto drop_runs = [bm](std::vector<HeapFile>* files, Status keep) {
    for (HeapFile& f : *files) {
      if (!f.valid()) continue;
      Status s = f.Drop(bm);
      if (keep.ok()) keep = s;
    }
    files->clear();
    return keep;
  };
  Status gen_st = GenerateRuns(bm, input, work_pages, order, exec, &runs);
  if (!gen_st.ok()) return drop_runs(&runs, gen_st);
  obs::Count(obs::Counter::kSortRuns, runs.size());
  if (runs.empty()) return HeapFile::Create(bm);

  const size_t fan_in = work_pages - 1;
  while (runs.size() > 1) {
    obs::ObsSpan merge_span(obs::Phase::kMerge);
    obs::Count(obs::Counter::kSortMergePasses);
    std::vector<HeapFile> next;
    for (size_t i = 0; i < runs.size(); i += fan_in) {
      size_t end = std::min(runs.size(), i + fan_in);
      std::vector<HeapFile> group(runs.begin() + i, runs.begin() + end);
      auto merged = MergeRuns(bm, &group, order);
      if (!merged.ok()) {
        // MergeRuns dropped its own inputs (runs[i, end) via the group
        // copies); sweep the not-yet-merged tail and the finished runs.
        std::vector<HeapFile> rest(runs.begin() + end, runs.end());
        Status keep = drop_runs(&rest, merged.status());
        return drop_runs(&next, keep);
      }
      next.push_back(std::move(*merged));
    }
    runs = std::move(next);
  }
  return runs[0];
}

Result<bool> IsSorted(BufferManager* bm, const HeapFile& file, SortOrder order) {
  HeapFile::Scanner scan(bm, file);
  ElementRecord prev;
  bool first = true;
  for (auto batch = scan.NextElementBatch(); !batch.empty();
       batch = scan.NextElementBatch()) {
    for (const ElementRecord& cur : batch) {
      if (!first && ElementLess(cur, prev, order)) return false;
      prev = cur;
      first = false;
    }
  }
  PBITREE_RETURN_IF_ERROR(scan.status());
  return true;
}

}  // namespace pbitree
