#ifndef PBITREE_SORT_EXTERNAL_SORT_H_
#define PBITREE_SORT_EXTERNAL_SORT_H_

#include <cstdint>

#include "common/status.h"
#include "pbitree/code.h"
#include "storage/heap_file.h"

namespace pbitree {

/// \brief Sort orders used by the containment-join algorithms.
///
/// kStartOrder is document order: region Start ascending with ties (a
/// node and the leftmost leaf of its subtree share a Start under the
/// Lemma-3 conversion) broken by height descending, so an ancestor
/// always precedes its descendants — the order MPMGJN / STACKTREE /
/// ADB+ require.
enum class SortOrder {
  kStartOrder,  // (StartOf(code) asc, height desc)
  kCodeOrder,   // raw PBiTree code ascending
};

/// Comparator corresponding to a SortOrder.
bool ElementLess(const ElementRecord& a, const ElementRecord& b, SortOrder order);

/// \brief External merge sort over a heap file of ElementRecords — the
/// "custom sorting routine" of Section 3.1 that lets the sort-based
/// region algorithms run on PBiTree-coded data.
///
/// Uses at most `work_pages` pages of working memory: run generation
/// sorts work_pages-sized chunks in memory, then (work_pages - 1)-way
/// merge passes reduce the runs to one. The input file is left intact;
/// the sorted file is the caller's to drop. I/O cost is
/// the textbook 2 * ||R|| * ceil(log_{b-1}(runs)) + 2 * ||R||, which is
/// exactly the term the paper charges the naive sort-on-the-fly
/// algorithms with (Section 3.4.1). The sort is single-threaded: the
/// parallel unit is the code-space segment, one level up
/// (RunSegmentedJoin), and each segment sorts with the full budget.
StatusOr<HeapFile> ExternalSort(BufferManager* bm, const HeapFile& input,
                                size_t work_pages, SortOrder order);

/// Verifies that `file` is sorted according to `order` (test helper).
StatusOr<bool> IsSorted(BufferManager* bm, const HeapFile& file,
                        SortOrder order);

}  // namespace pbitree

#endif  // PBITREE_SORT_EXTERNAL_SORT_H_
