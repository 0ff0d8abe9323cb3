#ifndef PBITREE_INDEX_XRTREE_H_
#define PBITREE_INDEX_XRTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "pbitree/code.h"
#include "storage/buffer_manager.h"
#include "storage/heap_file.h"

namespace pbitree {

/// \brief XR-tree (Jiang, Lu, Wang, Ooi, ICDE'03 [8]) — the successor
/// index the PBiTree paper footnotes as outperforming Anc_Des_B+.
///
/// A Start-keyed B+-tree whose *internal* nodes carry stab lists: every
/// indexed element is stored in a leaf (by Start) and, if its region
/// [Start, End] spans ("stabs") a router key, also in the stab list of
/// the HIGHEST internal node with a stabbed router. The key property:
/// all elements whose region contains a point q are found on q's
/// root-to-leaf search path — each path node's stab list contributes
/// the intervals assigned there that cover q. This makes "fetch all
/// ancestors of q" an O(path + answers) operation, which is exactly
/// what ADB+ lacked for ancestor skipping.
///
/// The structure is bulk-loaded (static), like the other experiment
/// indexes. Node layout (4 KiB pages):
///  - leaves: as a chained B+-tree leaf, ElementRecords by Start
///    (byte 0 tag, count, next-leaf id; 255 entries);
///  - internal: router keys + child ids + the page id of this node's
///    stab-list chain (ElementRecords sorted by Start).
class XRTree {
 public:
  static constexpr size_t kLeafCapacity = (kPageSize - 8) / 16;       // 255
  static constexpr size_t kInteriorCapacity = (kPageSize - 16) / 12;  // 340

  XRTree() = default;

  /// Bulk loads from input sorted in document order (Start ascending).
  static StatusOr<XRTree> BulkLoad(BufferManager* bm,
                                   const HeapFile& sorted_by_start);

  bool valid() const { return root_ != kInvalidPageId; }
  uint64_t num_entries() const { return num_entries_; }
  uint64_t num_pages() const { return num_pages_; }
  int tree_height() const { return height_; }
  /// Number of elements held in stab lists (the rest live only in
  /// leaves) — the XR-tree's space overhead statistic.
  uint64_t num_stabbed() const { return num_stabbed_; }

  /// Emits every indexed element whose region contains point `q`
  /// (Start <= q <= End), in document order (outermost ancestor
  /// first) — the stack-rebuilding primitive of the XR-stack join.
  Status StabPath(BufferManager* bm, uint64_t q,
                  const std::function<void(const ElementRecord&)>& emit) const;

  /// Document-order cursor over the leaf level with repositioning —
  /// what the XR-stack join scans and skips with.
  class Cursor {
   public:
    Cursor(BufferManager* bm, const XRTree& tree);
    ~Cursor() { Close(); }

    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;

    bool live() const { return live_; }
    const ElementRecord& rec() const { return rec_; }

    Status Advance();
    /// Repositions to the first element with Start >= key.
    Status SeekTo(uint64_t key);
    void Close();

   private:
    BufferManager* bm_;
    const XRTree* tree_;
    Page* leaf_ = nullptr;
    size_t index_ = 0;
    bool live_ = false;
    ElementRecord rec_;
  };

  /// Frees every page (nodes and stab chains).
  Status Drop(BufferManager* bm);

 private:
  friend class Cursor;

  StatusOr<Page*> DescendToLeaf(BufferManager* bm, uint64_t key) const;

  PageId root_ = kInvalidPageId;
  uint64_t num_entries_ = 0;
  uint64_t num_pages_ = 0;
  uint64_t num_stabbed_ = 0;
  int height_ = 1;
};

}  // namespace pbitree

#endif  // PBITREE_INDEX_XRTREE_H_
