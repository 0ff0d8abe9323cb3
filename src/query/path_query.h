#ifndef PBITREE_QUERY_PATH_QUERY_H_
#define PBITREE_QUERY_PATH_QUERY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "xml/data_tree.h"

namespace pbitree {

/// \brief A descendant-axis path expression, e.g. "//section//figure".
///
/// The paper positions containment joins as the primitive that path
/// queries decompose into (Li & Moon [12]); this module is that
/// decomposition layer made concrete: each step pair becomes one
/// containment join, with the (unsorted, unindexed!) intermediate
/// result feeding the next join — exactly the case the partitioning
/// algorithms were designed for.
///
/// Only the descendant axis (`//`) is supported: the child axis needs
/// data-tree parenthood, which PBiTree codes alone do not encode (the
/// binarization places children several PBiTree levels below their
/// parent).
struct PathQuery {
  std::vector<std::string> steps;  // element names, outermost first
};

/// Parses "//a//b//c". Errors on empty input, other axes, predicates.
StatusOr<PathQuery> ParsePathQuery(std::string_view text);

/// Per-join measurements of one evaluation.
struct PathQueryStats {
  std::vector<RunResult> joins;        // one entry per step pair
  uint64_t final_count = 0;            // distinct matches of the last step
};

/// \brief Evaluates `query` against a binarized document.
///
/// Step 1 extracts the element set of the first tag; each further step
/// joins the current match set (as ancestors) with the next tag's
/// element set and keeps the *distinct descendants* as the new match
/// set. Returns the distinct elements matching the full path (the
/// XPath answer set), as an ElementSet the caller must Drop.
StatusOr<ElementSet> EvaluatePathQuery(BufferManager* bm, const DataTree& tree,
                                       const PBiTreeSpec& spec,
                                       const PathQuery& query,
                                       const RunOptions& options,
                                       PathQueryStats* stats = nullptr);

/// Deduplicates the descendant column of a join-result pair file into
/// an element set (sorting by code; the output is not in document
/// order). Exposed for custom pipelines; the input file is not dropped.
StatusOr<ElementSet> DistinctDescendants(BufferManager* bm,
                                         const HeapFile& pair_file,
                                         PBiTreeSpec spec, size_t work_pages);

}  // namespace pbitree

#endif  // PBITREE_QUERY_PATH_QUERY_H_
