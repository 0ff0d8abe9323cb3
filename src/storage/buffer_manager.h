#ifndef PBITREE_STORAGE_BUFFER_MANAGER_H_
#define PBITREE_STORAGE_BUFFER_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace pbitree {

/// \brief Buffer-pool statistics (logical requests vs physical I/O).
struct BufferStats {
  uint64_t fetches = 0;      // FetchPage calls
  uint64_t hits = 0;         // served from the pool
  uint64_t misses = 0;       // required a disk read
  uint64_t evictions = 0;    // victim frames reclaimed
  uint64_t dirty_writes = 0; // evictions/flushes that wrote back

  double HitRate() const {
    return fetches == 0 ? 0.0 : static_cast<double>(hits) / fetches;
  }
};

/// \brief Fixed-size page cache with clock replacement — the Minibase
/// buffer-manager stand-in.
///
/// All page traffic of every algorithm in the repository flows through a
/// BufferManager, so limiting `pool_pages` faithfully reproduces the
/// paper's "b buffer pages" experiments (Figure 6(e)/(f)).
///
/// Usage protocol: FetchPage/NewPage return a pinned frame; callers must
/// UnpinPage(id, dirty) exactly once per pin. Unpinned frames are
/// eligible for eviction.
///
/// Thread safety: FetchPage/NewPage/UnpinPage/DeletePage may be called
/// concurrently. A single pool latch guards the page table, the clock
/// hand and frame metadata; the actual disk transfer of a miss runs
/// *outside* the latch with the frame marked `io_pending_` (a per-frame
/// latch), so misses on different pages overlap their I/O. A fetch that
/// hits a frame mid-transfer waits on the pool's I/O condition
/// variable. Evicting a dirty victim additionally records its page id
/// in a write-back table until the write lands on disk: a miss (or
/// DeletePage) on that id waits on the same condition variable, so no
/// thread can read a stale on-disk copy — or free the page — while its
/// newest bytes are still in flight. Pinned frames are never
/// victimised, so the data bytes of a returned Page* are only touched
/// by its pin holders.
///
/// Maintenance operations (FlushPage/FlushAll/PurgeAll/ResetStats) are
/// phase operations: callers run them while no worker threads are
/// active (between measured runs), which the single-threaded seed
/// behaviour already assumed.
class BufferManager {
 public:
  /// `pool_pages` is the paper's `b` (number of buffer frames).
  BufferManager(DiskManager* disk, size_t pool_pages);
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Pins page `page_id`, reading it from disk on a miss.
  Result<Page*> FetchPage(PageId page_id);

  /// Allocates a fresh page on disk and pins a zeroed frame for it.
  Result<Page*> NewPage();

  /// Releases one pin; `dirty` marks the frame modified.
  Status UnpinPage(PageId page_id, bool dirty);

  /// Writes the page back if dirty (it stays cached).
  Status FlushPage(PageId page_id);

  /// Flushes every dirty frame, after waiting out in-flight eviction
  /// write-backs of other threads.
  Status FlushAll();

  /// Flushes and then drops every unpinned frame from the pool — a
  /// cold-cache reset. Benchmarks call this before each measured run
  /// so the paper's raw-disk protocol (no cache warm-up between
  /// algorithms) is reproduced. Fails if any frame is pinned.
  Status PurgeAll();

  /// Unpins nothing, but drops the page from the pool and frees it on
  /// disk. The page must not be pinned.
  Status DeletePage(PageId page_id);

  /// Crash simulation (tests only): waits out in-flight transfers, then
  /// drops every frame — pinned or not, dirty or not — with NO
  /// write-back, exactly as if the process had died with the pool's
  /// state lost. Whatever the backend already holds is what a reopened
  /// store will see. The pool is empty (and all pins void) afterwards;
  /// any Page* previously handed out is invalid. Production code never
  /// calls this.
  void DiscardAll();

  size_t pool_pages() const { return frames_.size(); }
  DiskManager* disk() const { return disk_; }

  const BufferStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferStats(); }

  /// Number of currently pinned frames (for tests / leak detection).
  size_t PinnedFrames() const;

 private:
  /// Finds a victim frame via the clock sweep (latch held). Fails when
  /// every frame is pinned or mid-transfer.
  Result<size_t> FindVictimLocked();

  /// FindVictimLocked with patience: when the sweep fails but frames
  /// are merely mid-transfer (other threads' misses), waits on the I/O
  /// condition variable and retries — those transfers complete without
  /// needing this latch held. Fails only when every frame is genuinely
  /// pinned.
  Result<size_t> AcquireVictimLocked(std::unique_lock<std::mutex>& lk);

  /// Detaches frame `idx` from its current page (latch held): removes
  /// the mapping and counts the eviction. Returns the write-back the
  /// caller must perform outside the latch (old page id, or
  /// kInvalidPageId when nothing needs writing).
  PageId DetachFrameLocked(size_t idx);

  DiskManager* disk_;
  std::vector<std::unique_ptr<Page>> frames_;
  std::unordered_map<PageId, size_t> page_table_;
  /// Page ids of evicted dirty victims whose write-back is in flight
  /// (see class comment). A page id appears at most once: the miss path
  /// waits it out before re-caching the page.
  std::unordered_set<PageId> writebacks_;
  size_t clock_hand_ = 0;
  BufferStats stats_;

  /// The pool latch (see class comment). Mutable so that const
  /// observers (PinnedFrames) can take it.
  mutable std::mutex latch_;
  /// Signalled whenever a frame's io_pending_ transfer completes.
  std::condition_variable io_cv_;
};

/// \brief RAII pin guard: unpins on destruction.
class PinGuard {
 public:
  PinGuard() = default;
  PinGuard(BufferManager* bm, Page* page) : bm_(bm), page_(page) {}
  PinGuard(PinGuard&& o) noexcept { *this = std::move(o); }
  PinGuard& operator=(PinGuard&& o) noexcept {
    Release();
    bm_ = o.bm_;
    page_ = o.page_;
    dirty_ = o.dirty_;
    o.bm_ = nullptr;
    o.page_ = nullptr;
    return *this;
  }
  ~PinGuard() { Release(); }

  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;

  Page* get() const { return page_; }
  Page* operator->() const { return page_; }
  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (bm_ != nullptr && page_ != nullptr) {
      bm_->UnpinPage(page_->page_id(), dirty_);
    }
    bm_ = nullptr;
    page_ = nullptr;
    dirty_ = false;
  }

 private:
  BufferManager* bm_ = nullptr;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

}  // namespace pbitree

#endif  // PBITREE_STORAGE_BUFFER_MANAGER_H_
