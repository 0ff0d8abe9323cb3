#ifndef PBITREE_EXEC_PARTITION_EXEC_H_
#define PBITREE_EXEC_PARTITION_EXEC_H_

#include <cstddef>
#include <functional>

#include "common/status.h"
#include "exec/thread_pool.h"
#include "join/join_context.h"
#include "join/result_sink.h"

namespace pbitree {

/// \brief The order-preserving fan-out/fan-in driver behind segment
/// scatter-gather (RunSegmentedJoin).
///
/// The only parallel unit in the repository is the code-space segment:
/// the VPJ lemma makes segment pairs independent, so each active
/// segment pair joins as one pool task. A join over one unsegmented
/// pair (RunJoin) is always serial and never touches a pool.
///
/// A fan-out `threads` wide runs on a ThreadPool of `threads - 1`
/// workers: the help-on-wait model makes the blocked caller the last
/// executor, so at most `threads` tasks run at once. At 1 thread there
/// is no pool (a null pointer) and the segments run serially.
///
/// The budget rule: every task gets the full `work_pages`, whether the
/// segments run serially or in parallel — every segment owns its own
/// buffer pool, so slicing the budget would only add sort runs and
/// partition passes. Peak working memory is therefore
/// `threads × work_pages` by design, and page I/O at any width equals
/// the serial segment loop's.
///
/// Each of `n` independent tasks runs on the pool with its own worker
/// JoinContext (the parent's buffer pool and its full `work_pages`) and
/// its own thread-local BufferingSink. When every task finished, worker
/// stats merge into the parent context and the buffered pairs replay
/// into the shared sink in task order — so the emitted pair sequence is
/// identical to the serial loop's, just computed concurrently.
///
/// Callers keep their serial loop for the !ShouldParallelize case.

/// One task. `i` is the task index; the task joins into `local_sink`
/// using `worker` and drops any temp files it made.
using PartitionTask =
    std::function<Status(size_t i, JoinContext* worker, ResultSink* local_sink)>;

/// True when there is a pool (a fan-out wider than 1) and more than one
/// task to run.
bool ShouldParallelize(const ThreadPool* pool, size_t n);

/// Runs `task` for every index on `pool` and the calling thread.
/// Requires ShouldParallelize(pool, n). A task that has not started when a
/// sibling fails returns kCancelled without running. Returns the first
/// (lowest-index) real error, else OK; pairs are only replayed into
/// `sink` when every task succeeded.
Status ParallelPartitions(ThreadPool* pool, JoinContext* ctx,
                          ResultSink* sink, size_t n,
                          const PartitionTask& task);

}  // namespace pbitree

#endif  // PBITREE_EXEC_PARTITION_EXEC_H_
