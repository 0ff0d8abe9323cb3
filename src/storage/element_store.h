#ifndef PBITREE_STORAGE_ELEMENT_STORE_H_
#define PBITREE_STORAGE_ELEMENT_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "pbitree/code.h"
#include "storage/buffer_manager.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/record.h"

namespace pbitree {

/// \brief Mutable view over a database of catalogued element sets:
/// epoch-based incremental updates with crash consistency — the store
/// that turns the build-once pipeline into a live one.
///
/// The paper's Section 2.3.2 observes that virtual PBiTree nodes act as
/// placeholders for future insertions: a new element takes a free code
/// inside its parent's subtree (AllocateChildCode) and *nothing else is
/// re-encoded*. This class carries that observation through the storage
/// stack: elements are inserted into / deleted from the backing heap
/// files in place (both page codecs), and each committed batch of
/// mutations advances a monotone snapshot *epoch* that readers pin at
/// query start and the serve layer uses to key its result cache
/// (serve/result_cache.h).
///
/// ## Transactions
///
/// Mutations are grouped into batches. The first mutating call takes
/// the store's writer lock and opens a batch; the same thread then
/// applies any number of mutations and ends the batch with Commit()
/// (durable, epoch bumped) or Rollback() (every in-memory and pooled
/// page restored byte-for-byte). Readers take ReadPin (a shared lock +
/// epoch snapshot), so they always observe either the pre-batch or the
/// post-commit state, never a half-applied batch.
///
/// ## Crash consistency
///
/// Commit is write-ahead logged with physical page images:
///  1. the after-images of every modified page plus the new catalog
///     header (epoch bumped) are written to a freshly allocated log
///     chain, synced, and read back to verify their checksum — any
///     failure up to here leaves the old state untouched and the batch
///     still open;
///  2. the new header is flushed and synced — the point of no return.
///     Its log pointer is what makes the chain from (1) discoverable,
///     so it must be durable before any in-place data write; until it
///     lands, the old header still names the previous (not yet
///     retired) chain and recovery lands on the old state in full;
///  3. only then are the data pages flushed in place and the previous
///     commit's chain retired.
/// A crash before (2) completes loses the batch cleanly; a crash after
/// — including torn in-place writes that lie about succeeding — is
/// repaired by Recover(), which replays the verified log images before
/// anything else reads the database. Recovery is idempotent (physical
/// redo), so replaying an already-applied log is harmless.
///
/// Call Recover(disk) after constructing the DiskManager and *before*
/// the first BufferManager fetch whenever the database may have been
/// written by a mutable store (tools do this unconditionally; it is a
/// no-op on fresh, v1, or log-free databases).
///
/// ## Slack exhaustion
///
/// When the parent subtree has no free code left, the insert falls back
/// to localized re-binarization: every element inside the parent's
/// subtree interval — across *all* catalogued sets of the same PBiTree,
/// since containment must keep holding between sets — is re-embedded
/// into the same interval by an order-preserving, weight-balanced
/// assignment, and the new element joins as the parent's last child.
/// Only pages holding affected records are rewritten (in place, scan
/// order preserved); codes outside the interval never change. If even
/// re-binarization cannot fit (subtree genuinely full), the typed
/// SlackExhausted condition surfaces to the caller.
///
/// ## Scope
///
/// Only unsegmented databases are mutable; mutating a set that lives in
/// a SegmentStore returns the typed Unimplemented condition (never a
/// silently corrupted segmented database — see segment_store.h).
/// The store keeps no index: joins that want one (INLJN, Anc_Des_B+)
/// build it over the current records and drop it when they finish.
class ElementSetStore {
 public:
  /// Replays the commit log of a mutable database, if one is present
  /// and newer than (or as new as) the on-disk header. Must run on the
  /// raw DiskManager before any BufferManager caches a page. Returns
  /// Corruption only when the header is torn AND no valid log can
  /// repair it; every torn-log case resolves to the old committed
  /// state.
  static Status Recover(DiskManager* disk);

  /// Opens the store over an already-recovered database: loads the
  /// catalog and warms a handle for every unsegmented set.
  static StatusOr<std::unique_ptr<ElementSetStore>> Open(BufferManager* bm);

  ~ElementSetStore();

  ElementSetStore(const ElementSetStore&) = delete;
  ElementSetStore& operator=(const ElementSetStore&) = delete;

  /// Epoch of the last committed state. Starts at the catalog's stored
  /// epoch (0 for a freshly built database).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// \brief Reader snapshot: holds the store's shared lock (mutation
  /// batches wait) and the epoch observed at acquisition. Queries hold
  /// one for their whole execution so their results are attributable to
  /// exactly one epoch — the property the result cache keys on.
  class ReadPin {
   public:
    ReadPin() = default;
    explicit ReadPin(const ElementSetStore* store)
        : lock_(store->mu_), epoch_(store->epoch()) {}

    uint64_t epoch() const { return epoch_; }

   private:
    std::shared_lock<std::shared_mutex> lock_;
    uint64_t epoch_ = 0;
  };
  ReadPin PinForRead() const { return ReadPin(this); }

  /// Live handle of an unsegmented set (stable address for the store's
  /// lifetime). Call under a ReadPin (or with external serialization).
  StatusOr<const ElementSet*> GetSet(const std::string& name) const;

  std::vector<std::string> SetNames() const;
  const Catalog& catalog() const { return catalog_; }

  /// Inserts a new child of `parent` into set `name`, allocating its
  /// code via AllocateChildCode against every element currently stored
  /// inside the parent's subtree (across all same-height sets); falls
  /// back to re-binarization when the subtree's slack is exhausted.
  /// Returns the code the new element received. Opens a batch if none
  /// is open.
  StatusOr<Code> InsertChild(const std::string& name, Code parent, uint32_t tag,
                             uint32_t doc);

  /// Inserts a record whose code the caller already chose (it must be a
  /// valid code of the set's PBiTree; the caller is responsible for it
  /// not colliding with existing subtrees). Appends in document
  /// position — the set's sorted_by_start flag is cleared when the
  /// append breaks Start order.
  Status InsertRecord(const std::string& name, const ElementRecord& rec);

  /// Deletes the first stored record of `name` with code `code`
  /// (NotFound when absent). The page is compacted in place; surviving
  /// records keep their relative scan order.
  Status DeleteElement(const std::string& name, Code code);

  /// True while a mutation batch is open (committed by Commit, undone
  /// by Rollback — both from the batch's thread).
  bool InBatch() const { return batch_open_.load(std::memory_order_acquire); }

  /// Durably commits the open batch and bumps the epoch. No-op without
  /// an open batch. An error *before* the new header is durable (log
  /// write, read-back verify, or header publish) leaves the batch open
  /// and the old state intact (retry or roll back); an error after that
  /// point reports the failed in-place flush but the batch IS committed
  /// — reopening the database replays the log.
  Status Commit();

  /// Restores every modified page, handle and metadata to the
  /// pre-batch state and closes the batch. No-op without an open batch.
  Status Rollback();

 private:
  /// Exact per-set bookkeeping, loaded lazily by one scan: how many
  /// records of each PBiTree height exist (so deletes maintain
  /// height_mask exactly) and the last record in scan order (so appends
  /// maintain sorted_by_start exactly).
  struct SetMeta {
    bool loaded = false;
    std::array<uint64_t, kMaxTreeHeight + 1> height_counts{};
    ElementRecord last_rec{};
  };

  struct SetState {
    std::string name;
    ElementSet set;
    SetMeta meta;
    bool dirty = false;         // mutated in the open batch
    bool needs_rescan = false;  // metadata must be rescanned at commit
  };

  /// Pre-batch per-set state, captured at the set's first mutation.
  struct SetSnapshot {
    ElementSet set;
    SetMeta meta;
  };

  /// Location of a stored record.
  struct RecordLoc {
    SetState* state = nullptr;
    size_t page_index = 0;
    size_t slot = 0;
    ElementRecord rec;
  };

  explicit ElementSetStore(BufferManager* bm) : bm_(bm) {}

  bool OwnsBatch() const {
    return batch_open_.load(std::memory_order_acquire) &&
           batch_owner_.load(std::memory_order_acquire) ==
               std::this_thread::get_id();
  }
  /// Opens a batch (taking the writer lock) unless this thread already
  /// owns one.
  void BeginBatch();

  StatusOr<SetState*> MutableSet(const std::string& name);

  /// Loads SetMeta by one full scan (no-op when already loaded).
  Status EnsureMeta(SetState* s);
  /// Recomputes every derived per-set field — metadata, range, height
  /// mask, sortedness — from the stored records.
  Status ScanMeta(SetState* s);

  /// Captures the set's rollback snapshot at its first batch mutation.
  void SnapshotSet(const std::string& name, SetState* s);

  /// Pins `pid` and keeps its before-image for rollback / its
  /// after-image for the commit log. Pages allocated in this batch are
  /// skipped (rolled back by deletion, logged as new pages).
  Status TrackPage(PageId pid);
  void ReleaseTrackedPins();

  /// Appends `rec` to the set, maintaining metadata and sortedness;
  /// registers pages the append allocates with the batch.
  Status AppendToSet(const std::string& name, SetState* s,
                     const ElementRecord& rec);

  /// First stored record with code `code`, in scan order.
  StatusOr<RecordLoc> Locate(SetState* s, Code code);

  /// Every stored record (with location) whose code lies inside
  /// `interval`, excluding codes equal to `exclude`, across all sets of
  /// PBiTree height `tree_height`.
  Status CollectInterval(int tree_height, CodeInterval interval, Code exclude,
                         std::vector<RecordLoc>* out);

  /// Re-binarization fallback of InsertChild (see class comment).
  StatusOr<Code> Rebinarize(const std::string& name, SetState* target,
                            Code parent, uint32_t tag, uint32_t doc);

  BufferManager* bm_ = nullptr;
  Catalog catalog_;
  std::map<std::string, SetState> sets_;
  std::atomic<uint64_t> epoch_{0};
  /// Pages of the last committed log chain (freed by the next commit).
  std::vector<PageId> live_log_pages_;

  /// Writer lock: held exclusively for a whole mutation batch, shared
  /// by ReadPins.
  mutable std::shared_mutex mu_;
  std::atomic<bool> batch_open_{false};
  std::atomic<std::thread::id> batch_owner_{};

  /// Open-batch state. `tracked_` maps each pre-existing modified page
  /// to its before-image; every tracked page stays pinned until the
  /// batch ends so the pool cannot steal the frame and write
  /// uncommitted bytes over the old on-disk state.
  std::map<PageId, std::vector<char>> tracked_;
  std::vector<PageId> batch_new_pages_;
  std::set<PageId> batch_new_set_;
  std::map<std::string, SetSnapshot> snapshots_;
};

}  // namespace pbitree

#endif  // PBITREE_STORAGE_ELEMENT_STORE_H_
