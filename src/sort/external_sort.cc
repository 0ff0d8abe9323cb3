#include "sort/external_sort.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "storage/scratch.h"

namespace pbitree {

bool ElementLess(const ElementRecord& a, const ElementRecord& b,
                 SortOrder order) {
  if (order == SortOrder::kCodeOrder) return a.code < b.code;
  return DocLess(a.code, b.code);
}

namespace {

/// Sorts one chunk in memory and writes it out as a run.
StatusOr<ScratchFile> SortAndWriteRun(BufferManager* bm,
                                      std::vector<ElementRecord>* buf,
                                      SortOrder order) {
  std::sort(buf->begin(), buf->end(),
            [order](const ElementRecord& a, const ElementRecord& b) {
              return ElementLess(a, b, order);
            });
  PBITREE_ASSIGN_OR_RETURN(ScratchFile run, ScratchFile::Create(bm));
  HeapFile::Appender app(bm, run.get());
  PBITREE_RETURN_IF_ERROR(app.AppendElements(*buf));
  // Explicit close: a failed tail-page write-back fails the run
  // instead of disappearing in the destructor.
  PBITREE_RETURN_IF_ERROR(app.Finish());
  return run;
}

/// Generates sorted runs of at most `work_pages` pages each.
Status GenerateRuns(BufferManager* bm, const HeapFile& input,
                    size_t work_pages, SortOrder order,
                    std::vector<ScratchFile>* runs) {
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
    PBITREE_ASSIGN_OR_RETURN(ScratchFile run, SortAndWriteRun(bm, &buf, order));
    runs->push_back(std::move(run));
  }
  return Status::OK();
}

/// Merges `inputs` into one run and drops them.
StatusOr<ScratchFile> MergeRuns(BufferManager* bm,
                                std::vector<ScratchFile> inputs,
                                SortOrder order) {
  std::vector<std::unique_ptr<HeapFile::BatchCursor>> cursors;
  cursors.reserve(inputs.size());
  for (ScratchFile& f : inputs) {
    auto c = std::make_unique<HeapFile::BatchCursor>(bm, *f);
    PBITREE_RETURN_IF_ERROR(c->status());
    if (c->live()) cursors.push_back(std::move(c));
  }

  auto greater = [order, &cursors](size_t a, size_t b) {
    // Min-heap on the comparator (priority_queue is a max-heap).
    return ElementLess(cursors[b]->rec(), cursors[a]->rec(), order);
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(greater)> heap(greater);
  for (size_t i = 0; i < cursors.size(); ++i) heap.push(i);

  PBITREE_ASSIGN_OR_RETURN(ScratchFile out, ScratchFile::Create(bm));
  {
    HeapFile::Appender app(bm, out.get());
    while (!heap.empty()) {
      size_t i = heap.top();
      heap.pop();
      PBITREE_RETURN_IF_ERROR(app.AppendElement(cursors[i]->rec()));
      cursors[i]->Advance();
      if (cursors[i]->live()) {
        heap.push(i);
      } else {
        PBITREE_RETURN_IF_ERROR(cursors[i]->status());
      }
    }
    PBITREE_RETURN_IF_ERROR(app.Finish());
  }
  cursors.clear();  // release scan pins before the inputs go
  for (ScratchFile& f : inputs) PBITREE_RETURN_IF_ERROR(f.Drop());
  return out;
}

}  // namespace

StatusOr<HeapFile> ExternalSort(BufferManager* bm, const HeapFile& input,
                                size_t work_pages, SortOrder order) {
  if (work_pages < 3) {
    return Status::InvalidArgument("ExternalSort needs >= 3 work pages");
  }
  obs::ObsSpan sort_span(obs::Phase::kSort);
  std::vector<ScratchFile> runs;
  PBITREE_RETURN_IF_ERROR(GenerateRuns(bm, input, work_pages, order, &runs));
  obs::Count(obs::Counter::kSortRuns, runs.size());
  if (runs.empty()) return HeapFile::Create(bm);

  const size_t fan_in = work_pages - 1;
  while (runs.size() > 1) {
    obs::ObsSpan merge_span(obs::Phase::kMerge);
    obs::Count(obs::Counter::kSortMergePasses);
    std::vector<ScratchFile> next;
    for (size_t i = 0; i < runs.size(); i += fan_in) {
      auto group_end = runs.begin() + std::min(runs.size(), i + fan_in);
      PBITREE_ASSIGN_OR_RETURN(
          ScratchFile merged,
          MergeRuns(bm,
                    std::vector<ScratchFile>(
                        std::make_move_iterator(runs.begin() + i),
                        std::make_move_iterator(group_end)),
                    order));
      next.push_back(std::move(merged));
    }
    runs = std::move(next);
  }
  return runs[0].Release();
}

StatusOr<bool> IsSorted(BufferManager* bm, const HeapFile& file,
                        SortOrder order) {
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
