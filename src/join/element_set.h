#ifndef PBITREE_JOIN_ELEMENT_SET_H_
#define PBITREE_JOIN_ELEMENT_SET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "pbitree/code.h"
#include "storage/buffer_manager.h"
#include "storage/heap_file.h"
#include "storage/scratch.h"
#include "xml/data_tree.h"

namespace pbitree {

/// \brief A join input: a paged file of PBiTree-coded elements plus the
/// metadata the planner and the algorithms need (which PBiTree the codes
/// come from, sortedness, and the set of heights present).
///
/// `height_mask` has bit h set iff some element has PBiTree height h —
/// this is how MHCJ discovers its horizontal partitions and how
/// MHCJ+Rollup picks the rollup height without an extra scan.
struct ElementSet {
  HeapFile file;
  PBiTreeSpec spec;
  bool sorted_by_start = false;  // (Start asc, height desc) document order
  uint64_t height_mask = 0;
  /// Code range covered by the elements' subtrees (min Start / max
  /// End). VPJ uses this to cut at the data's common-ancestor subtree
  /// instead of the root, which matters for clustered real-world sets
  /// (all `person` elements live inside one `people` subtree).
  /// min_start > max_end means "unknown / empty".
  uint64_t min_start = UINT64_MAX;
  uint64_t max_end = 0;

  uint64_t num_records() const { return file.num_records(); }
  uint64_t num_pages() const { return file.num_pages(); }

  bool SingleHeight() const {
    return height_mask != 0 && (height_mask & (height_mask - 1)) == 0;
  }
  int NumHeights() const;
  /// Lowest/highest height present. Undefined when the set is empty.
  int MinHeight() const;
  int MaxHeight() const;
  /// All heights present, ascending.
  std::vector<int> Heights() const;
};

/// \brief Builds an ElementSet by appending records (maintains the
/// height mask incrementally).
///
/// One Appender serves every Add, so the tail page stays pinned (and,
/// on a compressed codec, staged) until it fills or Build finishes it.
/// The builder owns its file until Build hands it out: a builder
/// dropped without Build releases the pin and frees every page.
class ElementSetBuilder {
 public:
  /// Creates an empty set on `bm` belonging to PBiTree `spec`. `codec`
  /// picks the page encoding of the backing file; std::nullopt takes
  /// the ambient default (PBITREE_PAGE_CODEC, normally raw — see
  /// storage/factory.h).
  static StatusOr<ElementSetBuilder> Create(
      BufferManager* bm, PBiTreeSpec spec,
      std::optional<PageCodecKind> codec = std::nullopt);

  Status Add(const ElementRecord& rec);
  Status AddCode(Code code, uint32_t tag = 0, uint32_t doc = 0) {
    return Add(ElementRecord{code, tag, doc});
  }

  /// Finishes the tail page and returns the set; the error of a failed
  /// final encode or unpin propagates. The builder must not be used
  /// after.
  StatusOr<ElementSet> Build();

 private:
  ElementSetBuilder() = default;

  ElementSet set_;  // metadata; Build fills in `file`
  // Heap-held so the appender's file pointer survives moves of the
  // builder (Create returns it by value). Declared in destruction
  // order: the appender finishes before the file is freed.
  std::unique_ptr<ScratchFile> file_;
  std::unique_ptr<HeapFile::Appender> app_;
};

/// Extracts the elements of `tree` with tag `tag` (in document order)
/// into an ElementSet. The tree must have been binarized with `spec`.
/// `codec` as in ElementSetBuilder::Create.
StatusOr<ElementSet> ExtractTagSet(BufferManager* bm, const DataTree& tree,
                                 PBiTreeSpec spec, TagId tag, uint32_t doc = 0,
                                 std::optional<PageCodecKind> codec = std::nullopt);

/// Convenience: extract by tag name; NotFound if the tag never occurs.
StatusOr<ElementSet> ExtractTagSetByName(BufferManager* bm, const DataTree& tree,
                                       PBiTreeSpec spec,
                                       std::string_view tag_name,
                                       uint32_t doc = 0,
                                       std::optional<PageCodecKind> codec = std::nullopt);

}  // namespace pbitree

#endif  // PBITREE_JOIN_ELEMENT_SET_H_
