#ifndef PBITREE_STORAGE_SEGMENT_STORE_H_
#define PBITREE_STORAGE_SEGMENT_STORE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "join/segmented_set.h"
#include "pbitree/code.h"
#include "storage/buffer_manager.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "storage/io_backend.h"

namespace pbitree {

/// \brief A code-space-sharded database: one main file (master catalog,
/// spill/work pages) plus `2^l` segment files, each with its own
/// IoBackend, DiskManager, BufferManager pool and per-segment Catalog.
///
/// Layout on disk:
///  - main database at `path`: catalog header persists the store-wide
///    `segment_level` l and one *master* entry per set (aggregate
///    metadata, no heap pages);
///  - segment k at `path + ".seg<k>"`: a complete mini-database whose
///    catalog records the set pieces stored in that file. A piece holds
///    the set's natives designated to subtree k plus the ancestor
///    replicas spanning it (flagged kFlagHasReplicas when any are
///    foreign-designated), in source record order.
///
/// `l = 0` is special-cased to the pre-sharding layout: no segment
/// files, sets live in the main file as ordinary catalog entries, and
/// databases written by older builds open as level 0 — byte-identical
/// behaviour either way.
///
/// Pool sizing: the main pool keeps the full `pool_pages` budget (it
/// serves spill files and merged reads); each segment pool gets
/// `max(kMinSegmentPoolPages, pool_pages / 2^l)` frames, so the
/// aggregate segment budget matches the single shared pool it replaces
/// while every segment keeps enough frames to make progress.
class SegmentStore {
 public:
  static constexpr size_t kMinSegmentPoolPages = 16;
  static constexpr int kMaxSegmentLevel = 8;  // 256 segment files

  struct Options {
    /// IoBackend kind for the main and every segment file ("mem" or
    /// "file").
    std::string backend = "mem";
    /// Main database path; segment k lives at `path + ".seg<k>"`.
    /// Ignored by the mem backends.
    std::string path;
    /// Total frame budget (see class comment for the split).
    size_t pool_pages = 1024;
    /// Sharding level for a fresh database; -1 reuses whatever the
    /// catalog header says (0 for fresh or pre-sharding databases).
    /// Opening a non-empty store with a conflicting level is an error.
    int create_level = -1;
    /// Page codec for set files written by StoreSet (main-file copies
    /// at level 0, segment pieces otherwise). std::nullopt takes the
    /// ambient default (PBITREE_PAGE_CODEC, normally raw).
    std::optional<PageCodecKind> page_codec;
    /// Test hook: builds each IoBackend from its path (main and
    /// segments). Defaults to MakeIoBackend(backend, path) — tests
    /// wrap MemIoBackend in a FaultInjectingBackend here.
    std::function<StatusOr<std::unique_ptr<IoBackend>>(const std::string&)>
        make_backend;
  };

  static StatusOr<std::unique_ptr<SegmentStore>> Open(const Options& opts);

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  int level() const { return level_; }
  size_t num_segments() const { return size_t{1} << level_; }

  BufferManager* main_bm() { return main_.bm.get(); }
  Catalog* main_catalog() { return &main_.catalog; }
  /// Segment k's pool/catalog. At level 0 these alias the main file.
  BufferManager* segment_bm(size_t k);
  Catalog* segment_catalog(size_t k);

  /// Routes `src` (resident on `src_bm`, source record order) into the
  /// segment files as set `name`: natives to their designated segment,
  /// above-cut elements replicated into every segment they span, one
  /// source-order pass (per-segment order stays source order).
  /// Registers the per-segment entries and the master entry; an
  /// existing set of the same name is replaced. At level 0 the set is
  /// copied into the main file as an ordinary catalog entry.
  Status StoreSet(const std::string& name, const ElementSet& src,
                  BufferManager* src_bm);

  /// Opens set `name` as a SegmentedSet (handles to every stored
  /// piece; segments where the set has no records carry an invalid
  /// file). NotFound if absent.
  StatusOr<SegmentedSet> Load(const std::string& name);

  /// Materializes the unsegmented view of `name` on `dst_bm`: segments
  /// concatenated in code-space order with ancestor replicas filtered
  /// to their designated segment — each native exactly once. For a
  /// Start-sorted source this reproduces the original record sequence
  /// byte-for-byte. At level 0, returns the stored set directly (no
  /// copy; `dst_bm` must be the main pool).
  StatusOr<ElementSet> LoadMerged(const std::string& name,
                                  BufferManager* dst_bm);

  /// Set names known to the master catalog.
  std::vector<std::string> Names() const { return main_.catalog.Names(); }

  /// Persists every per-segment catalog, then the master catalog (with
  /// the segment level in its header). The store is reopenable after.
  Status SaveCatalogs();

  /// Flushes every pool and syncs every backend (serve-shutdown barrier).
  Status FlushAndSync();

  /// Live mutation of a sharded set is not implemented: an insert can
  /// land above the sharding cut (forcing replica maintenance in every
  /// spanned segment) and re-binarization can move codes across the
  /// segment boundary — routing either through the per-segment files
  /// without those mechanics would silently corrupt the scatter-gather
  /// invariants. Both entry points therefore return the *typed*
  /// kUnimplemented condition unconditionally (tests pin this), and
  /// callers fall back to the unsegmented path (ElementSetStore) or an
  /// offline re-shard (StoreSet).
  Status InsertRecord(const std::string& name, const ElementRecord& rec);
  Status DeleteRecord(const std::string& name, Code code);

 private:
  struct Piece {
    std::unique_ptr<DiskManager> disk;
    std::unique_ptr<BufferManager> bm;
    Catalog catalog;
  };

  SegmentStore() = default;

  Piece* piece(size_t k) { return level_ == 0 ? &main_ : &segments_[k]; }

  int level_ = 0;
  std::optional<PageCodecKind> page_codec_;  // StoreSet's codec choice
  Piece main_;
  std::vector<Piece> segments_;  // empty at level 0
};

}  // namespace pbitree

#endif  // PBITREE_STORAGE_SEGMENT_STORE_H_
