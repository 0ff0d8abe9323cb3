#ifndef PBITREE_INDEX_BPTREE_H_
#define PBITREE_INDEX_BPTREE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "pbitree/code.h"
#include "storage/buffer_manager.h"
#include "sort/external_sort.h"
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
/// 16-byte ElementRecord. A tree is built once, by a one-pass bulk load
/// from key-sorted input with every node packed full, and then only
/// read: range scans over the chained leaves and SeekCeil. The joins
/// that use one (INLJN, Anc_Des_B+) build it on the fly over their
/// input and drop it when they finish; nothing keeps a tree across
/// runs, so the tree has no insert or delete.
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

  /// Bulk loads from a stream already sorted by the key (ascending),
  /// packing every node full; empty input gives one empty leaf. On
  /// failure every page the load allocated is freed and none is left
  /// pinned.
  static StatusOr<BPTree> BulkLoad(BufferManager* bm,
                                   SortedStream* sorted_input, KeyKind kind);

  bool valid() const { return root_ != kInvalidPageId; }
  KeyKind key_kind() const { return kind_; }
  uint64_t num_entries() const { return num_entries_; }
  uint64_t num_pages() const { return pages_.size(); }
  int tree_height() const { return height_; }

  /// Frees every page of the index; after a failure a second Drop frees
  /// the pages still allocated.
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
  std::vector<PageId> pages_;  // every page of the tree, from BulkLoad
  int height_ = 1;  // number of levels (1 = root is a leaf)
};

}  // namespace pbitree

#endif  // PBITREE_INDEX_BPTREE_H_
