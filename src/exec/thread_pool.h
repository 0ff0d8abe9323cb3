#ifndef PBITREE_EXEC_THREAD_POOL_H_
#define PBITREE_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pbitree {

/// \brief Fixed-size worker pool with a help-on-wait execution model.
///
/// The pool owns one shared FIFO task queue. ParallelFor never just
/// sleeps: while its batch is outstanding the calling thread drains
/// tasks from the shared queue itself. Segment fan-out is the only
/// caller, but the serve daemon shares one pool across concurrent
/// queries, so several ParallelFor batches may be queued at once; a
/// caller that helps with another query's tasks keeps the pool busy
/// instead of idling, and a ParallelFor issued from inside a pool task
/// cannot deadlock.
///
/// Tasks must not throw across the pool boundary: ParallelFor rethrows
/// the first exception of its own batch in the caller.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains remaining queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Runs body(i) for every i in [0, n) across the pool. The calling
  /// thread participates in the work, and returns only when all n
  /// invocations finished. Rethrows the first exception thrown by this
  /// batch (the remaining iterations still run to completion).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

 private:
  void WorkerLoop();

  /// Pops and runs one queued task. Returns false when the queue was
  /// empty (nothing ran).
  bool RunOneTask();

  /// Wakes blocked ParallelFor callers. Called after every task
  /// completion and enqueue; takes mu_ so a caller that checked its
  /// predicate under mu_ cannot miss the wakeup.
  void SignalProgress();

  std::mutex mu_;
  std::condition_variable task_cv_;  // signalled on push and on stop
  /// Signalled whenever a task finishes or is enqueued — the wakeup
  /// channel for ParallelFor callers that found the queue empty.
  std::condition_variable progress_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace pbitree

#endif  // PBITREE_EXEC_THREAD_POOL_H_
