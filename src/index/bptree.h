#ifndef PBITREE_INDEX_BPTREE_H_
#define PBITREE_INDEX_BPTREE_H_

#include <cstdint>

#include "common/status.h"
#include "pbitree/code.h"
#include "storage/buffer_manager.h"
#include "storage/heap_file.h"

namespace pbitree {

/// Which attribute of an element a B+-tree is keyed on.
enum class KeyKind {
  kCode,   // raw PBiTree code — a range scan over [start(a), end(a)]
           // yields exactly the subtree of a (INLJN's descendant probe)
  kStart,  // region Start (Lemma 3) — document order, used by ADB+
};

/// Extracts the key of `rec` under `kind`.
inline uint64_t KeyOf(const ElementRecord& rec, KeyKind kind) {
  return kind == KeyKind::kCode ? rec.code : StartOf(rec.code);
}

/// \brief Disk-based B+-tree over ElementRecords — the Minibase B+-tree
/// module stand-in.
///
/// Keys are uint64 (duplicates allowed); leaf entries carry the full
/// 16-byte ElementRecord. Supports one-pass bulk loading from key-sorted
/// input (what the naive index-on-the-fly wrappers use) and incremental
/// insertion (splits), point/range search via a chained-leaf scanner.
///
/// Node layout (4 KiB pages):
///  - byte 0: 1 = leaf, 0 = interior; bytes 2-3: entry count;
///    bytes 4-7: next-leaf page id (leaves only).
///  - leaf entries at byte 8: (key u64, ElementRecord) = 24 B, 170/page.
///  - interior: leftmost child u32 at byte 8, then (key u64, child u32)
///    = 12 B entries; child i+1 holds keys >= key i.
class BPTree {
 public:
  static constexpr size_t kLeafCapacity = (kPageSize - 8) / 24;       // 170
  static constexpr size_t kInteriorCapacity = (kPageSize - 12) / 12;  // 340

  BPTree() = default;

  /// Creates an empty tree (a single empty leaf).
  static StatusOr<BPTree> CreateEmpty(BufferManager* bm, KeyKind kind);

  /// Bulk loads from input already sorted by the key (ascending).
  /// Leaves are packed to `fill` of capacity (0 < fill <= 1).
  static StatusOr<BPTree> BulkLoad(BufferManager* bm,
                                   const HeapFile& sorted_input, KeyKind kind,
                                   double fill = 1.0);

  bool valid() const { return root_ != kInvalidPageId; }
  KeyKind key_kind() const { return kind_; }
  uint64_t num_entries() const { return num_entries_; }
  uint64_t num_pages() const { return num_pages_; }
  int tree_height() const { return height_; }

  /// Inserts one entry (duplicates allowed).
  Status Insert(BufferManager* bm, const ElementRecord& rec);

  /// Removes one entry whose key AND record match `rec` exactly;
  /// NotFound if absent. Uses lazy deletion (leaves may underflow but
  /// empty leaves stay chained; the root collapses when a single child
  /// remains) — the classic simplification for index workloads whose
  /// deletes are rare relative to scans, trading space for simplicity.
  Status Remove(BufferManager* bm, const ElementRecord& rec);

  /// Copies some entry with exactly `key` into `out`; NotFound if none.
  Status PointSearch(BufferManager* bm, uint64_t key, ElementRecord* out) const;

  /// Frees every page of the index.
  Status Drop(BufferManager* bm);

  /// \brief Iterates entries with key in [lo, hi], ascending.
  class RangeScanner {
   public:
    RangeScanner(BufferManager* bm, const BPTree& tree, uint64_t lo, uint64_t hi);
    ~RangeScanner() { Close(); }

    RangeScanner(const RangeScanner&) = delete;
    RangeScanner& operator=(const RangeScanner&) = delete;

    bool Next(ElementRecord* out, Status* status = nullptr);
    void Close();

    /// First error this scan hit, latched for the scanner's lifetime;
    /// OK while healthy. Lets callers that pass no per-call status
    /// pointer still observe failures after their loop ends. Once an
    /// error latches the scan is dead: Next keeps returning false.
    const Status& status() const { return status_; }

   private:
    /// Latches `s`, mirrors it into the optional out-param, kills the scan.
    bool Fail(Status s, Status* status);

    BufferManager* bm_;
    uint64_t hi_;
    Page* leaf_ = nullptr;
    size_t index_ = 0;
    bool primed_ = false;
    uint64_t lo_;
    const BPTree* tree_;
    Status status_;
  };

  /// First leaf entry with key >= `key`; used by ADB+ skipping. Returns
  /// false (with OK status) when no such entry exists.
  StatusOr<bool> SeekCeil(BufferManager* bm, uint64_t key,
                          ElementRecord* out) const;

 private:
  friend class RangeScanner;

  /// Descends to the leaf that would contain `key`. The returned page
  /// is pinned; caller unpins.
  StatusOr<Page*> DescendToLeaf(BufferManager* bm, uint64_t key) const;

  PageId root_ = kInvalidPageId;
  KeyKind kind_ = KeyKind::kCode;
  uint64_t num_entries_ = 0;
  uint64_t num_pages_ = 0;
  int height_ = 1;  // number of levels (1 = root is a leaf)
};

}  // namespace pbitree

#endif  // PBITREE_INDEX_BPTREE_H_
