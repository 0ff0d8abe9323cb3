#ifndef PBITREE_STORAGE_DISK_MANAGER_H_
#define PBITREE_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/io_backend.h"
#include "storage/page.h"

namespace pbitree {

/// \brief Counters of physical page I/O performed by a DiskManager.
///
/// These are the primary cost metric of the reproduction: the paper's
/// elapsed times are disk-bound, so relative algorithm performance is
/// captured machine-independently by page read/write counts.
///
/// This is the plain snapshot type handed to callers; the live counters
/// inside DiskManager are atomics (AtomicDiskStats) so that parallel
/// workers can issue page I/O without racing the accounting.
struct DiskStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pages_allocated = 0;
  uint64_t pages_freed = 0;

  uint64_t TotalIO() const { return page_reads + page_writes; }
};

/// \brief The live, concurrently-updated counterpart of DiskStats.
struct AtomicDiskStats {
  std::atomic<uint64_t> page_reads{0};
  std::atomic<uint64_t> page_writes{0};
  std::atomic<uint64_t> pages_allocated{0};
  std::atomic<uint64_t> pages_freed{0};

  DiskStats Snapshot() const {
    DiskStats s;
    s.page_reads = page_reads.load(std::memory_order_relaxed);
    s.page_writes = page_writes.load(std::memory_order_relaxed);
    s.pages_allocated = pages_allocated.load(std::memory_order_relaxed);
    s.pages_freed = pages_freed.load(std::memory_order_relaxed);
    return s;
  }
};

/// \brief Bounded-retry policy for transient backend faults.
///
/// Only kIOError is retried (kCorruption means the bytes arrived but
/// are wrong — retrying reads the same wrong bytes). Each retry doubles
/// the backoff; counted in the io_retries observability counter. When
/// the budget runs out the operation fails with kRetryExhausted.
struct RetryPolicy {
  int max_attempts = 4;           // 1 initial try + 3 retries
  uint32_t backoff_initial_us = 0;  // first retry delay (0 in tests: no sleep)
  uint32_t backoff_max_us = 1000;
};

/// \brief Paged database with allocate/free, read/write and exact I/O
/// accounting — the Minibase "DB" / storage-manager stand-in.
///
/// Layout: page 0 is reserved (header); data pages start at 1. Freed
/// pages go to an in-memory free list and are reused before the store
/// is extended. Physical byte transfer is delegated to a pluggable
/// IoBackend (file-backed, in-memory, or a fault-injecting decorator);
/// this class layers on top of it:
///  - allocation (free list, frontier) and logical range checks,
///  - a per-page CRC32C checksum recorded on write and verified on
///    every read of a page this process wrote (torn-write detection →
///    kCorruption),
///  - bounded retry with exponential backoff for transient kIOError.
///
/// The checksum table is kept out of band (in memory, not in the page
/// image), so the on-disk format is unchanged: files written by earlier
/// versions read back bit-identically, and pages that predate this
/// process simply have no entry and skip verification.
class DiskManager {
 public:
  /// Creates a memory-backed database (no file). All I/O is still
  /// counted; this is the default substrate for tests and benchmarks.
  static DiskManager* OpenInMemory();

  /// Wraps an already-constructed backend (the --backend=file|mem CLI
  /// path and fault-injection tests). When `restore_frontier` is set
  /// the frontier is initialised from backend->SizeInPages().
  static StatusOr<DiskManager*> OpenWithBackend(
      std::unique_ptr<IoBackend> backend, bool restore_frontier);

  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocates a page and returns its id (reusing freed pages first).
  StatusOr<PageId> AllocatePage();

  /// Returns a page to the free list. Double-free is a checked error.
  Status FreePage(PageId page_id);

  /// Reads page `page_id` into `out` (exactly kPageSize bytes) and
  /// verifies its checksum when one is on record.
  Status ReadPage(PageId page_id, char* out);

  /// Writes kPageSize bytes from `in` to page `page_id` and records the
  /// page's checksum.
  Status WritePage(PageId page_id, const char* in);

  /// Durability barrier: flushes the backend (fsync for files).
  Status Sync();

  /// Number of pages ever allocated and not freed.
  uint64_t num_live_pages() const {
    return stats_.pages_allocated.load(std::memory_order_relaxed) -
           stats_.pages_freed.load(std::memory_order_relaxed);
  }

  /// Highest page id handed out so far plus one (file size in pages).
  PageId frontier() const {
    return next_page_id_.load(std::memory_order_acquire);
  }

  /// Restores the allocation frontier after reopening a persistent
  /// database (ids below it are considered live). Only grows.
  void SetFrontier(PageId frontier);

  /// Consistent point-in-time snapshot of the I/O counters. Returned by
  /// value so existing delta arithmetic (`after - before`) keeps
  /// working against the atomic live counters.
  DiskStats stats() const { return stats_.Snapshot(); }

  /// The backend this manager performs I/O through. Tests use this to
  /// reach a FaultInjectingBackend's Arm/Disarm.
  IoBackend* backend() { return backend_.get(); }

  /// Replaces the retry policy (tests shrink the budget to force
  /// kRetryExhausted quickly).
  void set_retry_policy(const RetryPolicy& p) { retry_ = p; }

 private:
  explicit DiskManager(std::unique_ptr<IoBackend> backend);

  /// Runs `op` (a backend page transfer) under the retry policy.
  Status WithRetry(const char* what, PageId page_id,
                   const std::function<Status()>& op);

  std::unique_ptr<IoBackend> backend_;
  RetryPolicy retry_;

  /// Guards allocation state (free list, free map, frontier growth).
  std::mutex alloc_mu_;
  std::vector<PageId> free_list_;
  std::vector<bool> is_free_;
  std::atomic<PageId> next_page_id_{1};  // page 0 reserved for the header

  /// Out-of-band per-page CRC32C table: recorded on successful write,
  /// dropped on free, verified on read when present.
  mutable std::shared_mutex crc_mu_;
  std::unordered_map<PageId, uint32_t> page_crc_;

  AtomicDiskStats stats_;
};

}  // namespace pbitree

#endif  // PBITREE_STORAGE_DISK_MANAGER_H_
