#include "exec/thread_pool.h"

#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "obs/metrics.h"

namespace pbitree {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      task_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    SignalProgress();
  }
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  SignalProgress();
  // Billed to the *helping* thread's operation: its blocking call made
  // progress by executing someone's task instead of sleeping.
  obs::Count(obs::Counter::kPoolHelpRuns);
  return true;
}

void ThreadPool::SignalProgress() {
  // The lock orders this notify after any waiter's predicate check:
  // a waiter re-checks under mu_ and only then blocks, so a completion
  // that post-dates its check must acquire mu_ — i.e. wait for the
  // waiter to actually be waiting — before notifying.
  std::lock_guard<std::mutex> lk(mu_);
  progress_cv_.notify_all();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    body(0);
    return;
  }

  struct Batch {
    std::mutex mu;
    size_t remaining;
    std::exception_ptr error;
  };
  auto batch = std::make_shared<Batch>();
  batch->remaining = n;

  obs::MetricRegistry* reg = obs::CurrentRegistry();
  obs::Count(obs::Counter::kPoolTasks, n);

  // `body` outlives every task: ParallelFor returns only once
  // remaining hits zero, so capturing it by reference is safe.
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (size_t i = 0; i < n; ++i) {
      queue_.push_back([batch, &body, reg, i] {
        obs::MetricScope scope(reg);
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> bl(batch->mu);
          if (!batch->error) batch->error = std::current_exception();
        }
        std::lock_guard<std::mutex> bl(batch->mu);
        --batch->remaining;
        // The executor (WorkerLoop/RunOneTask) signals progress_cv_
        // right after this task returns — that is the wakeup.
      });
    }
    if (reg != nullptr) {
      reg->UpdateGaugeMax(obs::Gauge::kPoolQueueDepth, queue_.size());
    }
    progress_cv_.notify_all();  // blocked helpers can pick up the batch
  }
  task_cv_.notify_all();

  // The caller helps: run any queued task (its own batch, another
  // batch, or a nested one) until this batch completes. With
  // the queue empty, sleep on progress_cv_ until a task of this batch
  // finishes on a worker or new helpable work is enqueued. Lock order
  // is mu_ then batch->mu here; completers take them one at a time, so
  // a completion after our remaining-check blocks on mu_ (held until
  // the wait actually parks) and its notify cannot be missed.
  for (;;) {
    {
      std::lock_guard<std::mutex> bl(batch->mu);
      if (batch->remaining == 0) break;
    }
    if (RunOneTask()) continue;
    std::unique_lock<std::mutex> lk(mu_);
    if (!queue_.empty()) continue;
    {
      std::lock_guard<std::mutex> bl(batch->mu);
      if (batch->remaining == 0) break;
    }
    progress_cv_.wait(lk);
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace pbitree
