#ifndef PBITREE_EXEC_EXEC_CONTEXT_H_
#define PBITREE_EXEC_EXEC_CONTEXT_H_

#include <cstddef>
#include <memory>

#include "exec/thread_pool.h"

namespace pbitree {

/// \brief Execution resources for segment fan-out: the worker pool.
///
/// The only parallel unit in the repository is the code-space segment
/// (RunSegmentedJoin): the VPJ lemma makes segment pairs independent,
/// so each active segment pair joins as one pool task. A join over one
/// unsegmented pair (RunJoin) is always serial and never touches a pool.
///
/// The budget rule: `threads` is the width of the segment fan-out and
/// `work_pages` applies to each segment task, whether the segments run
/// serially or in parallel — every segment owns its own buffer pool, so
/// slicing the budget would only add sort runs and partition passes.
/// Peak working memory is therefore `threads × work_pages` by design,
/// and page I/O at any `threads` equals the serial segment loop's.
///
/// An ExecContext with threads() == 1 owns no pool; consumers treat that
/// (and a null ExecContext pointer) as "run the segments serially".
/// The pool holds threads() - 1 workers: the help-on-wait model makes
/// the blocked caller the final executor, so at most threads() tasks run
/// concurrently.
class ExecContext {
 public:
  /// `threads` <= 1 selects serial execution (no pool is created).
  explicit ExecContext(size_t threads)
      : threads_(threads < 1 ? 1 : threads),
        pool_(threads_ > 1 ? std::make_unique<ThreadPool>(threads_ - 1)
                           : nullptr) {}

  size_t threads() const { return threads_; }

  /// Null when threads() == 1.
  ThreadPool* pool() const { return pool_.get(); }

 private:
  size_t threads_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace pbitree

#endif  // PBITREE_EXEC_EXEC_CONTEXT_H_
