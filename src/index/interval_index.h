#ifndef PBITREE_INDEX_INTERVAL_INDEX_H_
#define PBITREE_INDEX_INTERVAL_INDEX_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "pbitree/code.h"
#include "storage/buffer_manager.h"
#include "sort/external_sort.h"
#include "storage/heap_file.h"

namespace pbitree {

/// \brief Disk-based interval index over an element set — the paper's
/// "disk based interval tree" [7] used by INLJN to probe the *ancestor*
/// set with a descendant: Stab(q) returns every element a whose region
/// [Start(a), End(a)] contains q.
///
/// Structure: a static, bulk-loaded B+-tree keyed on Start whose
/// interior entries are augmented with the maximum End of their subtree
/// (an external-memory interval tree in the style of priority search
/// trees). A stabbing query descends every child whose key range starts
/// at or before q and whose max-End reaches q; typical cost is
/// O(log_B n + k/B) page reads.
///
/// Node layout (4 KiB pages):
///  - byte 0: 1 = leaf; bytes 2-3: count.
///  - leaf: ElementRecords (16 B) at byte 8, Start-ascending; End is
///    recomputed from the code (Lemma 3), so no extra storage.
///  - interior: entries (min_start u64, max_end u64, child u32) = 20 B
///    at byte 8.
class IntervalIndex {
 public:
  static constexpr size_t kLeafCapacity = (kPageSize - 8) / 16;      // 255
  static constexpr size_t kInteriorCapacity = (kPageSize - 8) / 20;  // 204

  IntervalIndex() = default;

  /// Bulk loads from a stream sorted by Start order (ties by height
  /// descending are fine; only Start monotonicity is checked).
  static StatusOr<IntervalIndex> BulkLoad(BufferManager* bm,
                                          SortedStream* sorted_by_start);

  bool valid() const { return root_ != kInvalidPageId; }
  uint64_t num_entries() const { return num_entries_; }
  uint64_t num_pages() const { return pages_.size(); }
  int tree_height() const { return height_; }

  /// Invokes `emit` for every indexed element whose region contains
  /// point `q` (Start <= q <= End). Elements whose code equals q are
  /// also emitted (callers filter self-pairs with IsAncestor).
  Status Stab(BufferManager* bm, uint64_t q,
              const std::function<void(const ElementRecord&)>& emit) const;

  /// Frees every page of the index; after a failure a second Drop frees
  /// the pages still allocated.
  Status Drop(BufferManager* bm);

 private:
  PageId root_ = kInvalidPageId;
  uint64_t num_entries_ = 0;
  std::vector<PageId> pages_;  // every page of the tree, from BulkLoad
  int height_ = 1;
};

}  // namespace pbitree

#endif  // PBITREE_INDEX_INTERVAL_INDEX_H_
