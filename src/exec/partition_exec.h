#ifndef PBITREE_EXEC_PARTITION_EXEC_H_
#define PBITREE_EXEC_PARTITION_EXEC_H_

#include <cstddef>
#include <functional>

#include "common/status.h"
#include "exec/exec_context.h"
#include "join/join_context.h"
#include "join/result_sink.h"

namespace pbitree {

/// \brief The order-preserving fan-out/fan-in driver behind segment
/// scatter-gather (RunSegmentedJoin).
///
/// Each of `n` independent tasks runs on `exec`'s pool with its own
/// worker JoinContext (the parent's pool and its full `work_pages`; see
/// exec/exec_context.h for the budget rule) and its own thread-local
/// BufferingSink. When every task finished, worker stats merge into the
/// parent context and the buffered pairs replay into the shared sink in
/// task order — so the emitted pair sequence is identical to the serial
/// loop's, just computed concurrently.
///
/// Callers keep their serial loop for the !ShouldParallelize case.

/// One task. `i` is the task index; the task joins into `local_sink`
/// using `worker` and drops any temp files it made.
using PartitionTask =
    std::function<Status(size_t i, JoinContext* worker, ResultSink* local_sink)>;

/// True when `exec` carries a pool with more than one thread and there
/// is more than one task to run.
bool ShouldParallelize(const ExecContext* exec, size_t n);

/// Runs `task` for every index on `exec`'s pool. Requires
/// ShouldParallelize(exec, n). A task that has not started when a
/// sibling fails returns kCancelled without running. Returns the first
/// (lowest-index) real error, else OK; pairs are only replayed into
/// `sink` when every task succeeded.
Status ParallelPartitions(ExecContext* exec, JoinContext* ctx,
                          ResultSink* sink, size_t n,
                          const PartitionTask& task);

}  // namespace pbitree

#endif  // PBITREE_EXEC_PARTITION_EXEC_H_
