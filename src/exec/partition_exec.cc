#include "exec/partition_exec.h"

#include <atomic>
#include <vector>

#include "obs/metrics.h"
#include "storage/heap_file.h"

namespace pbitree {

bool ShouldParallelize(const ExecContext* exec, size_t n) {
  return exec != nullptr && exec->threads() > 1 && n > 1;
}

Status ParallelPartitions(ExecContext* exec, JoinContext* ctx,
                          ResultSink* sink, size_t n,
                          const PartitionTask& task) {
  // Every worker gets the full budget: each task owns its resources
  // (a segment owns its pool), so slicing would only add passes.
  std::vector<JoinContext> worker_ctxs;
  worker_ctxs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    worker_ctxs.emplace_back(ctx->bm, ctx->work_pages);
  }
  // Each local sink buffers at most its worker's budget worth of pairs
  // in memory and spills the rest to a temp heap file, so join output
  // larger than the budget cannot blow up the heap.
  const size_t max_buffered = ctx->work_pages * HeapFile::kRecordsPerPage;
  std::vector<BufferingSink> local_sinks;
  local_sinks.reserve(n);
  for (size_t i = 0; i < n; ++i) local_sinks.emplace_back(ctx->bm, max_buffered);
  std::vector<Status> statuses(n);
  std::atomic<bool> cancel{false};

  exec->pool()->ParallelFor(n, [&](size_t i) {
    if (cancel.load(std::memory_order_relaxed)) {
      statuses[i] = Status::Cancelled("sibling partition failed");
      return;
    }
    statuses[i] = task(i, &worker_ctxs[i], &local_sinks[i]);
    if (!statuses[i].ok() && !statuses[i].IsCancelled()) {
      cancel.store(true, std::memory_order_relaxed);
    }
  });

  // Fan-in: a real error beats kCancelled — the cancellations are
  // collateral of the first failure, not the story to tell the caller.
  Status result = Status::OK();
  for (size_t i = 0; i < n; ++i) {
    ctx->stats.Merge(worker_ctxs[i].stats);
    if (!statuses[i].ok() &&
        (result.ok() || (result.IsCancelled() && !statuses[i].IsCancelled()))) {
      result = statuses[i];
    }
  }
  if (!result.ok()) return result;
  obs::ObsSpan replay_span(obs::Phase::kReplay);
  for (size_t i = 0; i < n; ++i) {
    PBITREE_RETURN_IF_ERROR(local_sinks[i].ReplayInto(sink));
  }
  return Status::OK();
}

}  // namespace pbitree
