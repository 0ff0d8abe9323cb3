#ifndef PBITREE_QUERY_TWIG_QUERY_H_
#define PBITREE_QUERY_TWIG_QUERY_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "xml/data_tree.h"

namespace pbitree {

/// Source of element sets by tag name — a binarized DataTree, a
/// Catalog, or anything else. Each call returns a fresh set the query
/// evaluator takes ownership of (and drops).
using ElementSetProvider =
    std::function<StatusOr<ElementSet>(const std::string& tag)>;

struct TwigQuery;

/// One step of a twig pattern: an element name plus optional
/// existential predicates, each a nested descendant-axis pattern
/// (`//section[//title][//figure//caption]//paragraph`).
struct TwigStep {
  std::string tag;
  std::vector<TwigQuery> predicates;
};

/// \brief A branching (twig) path pattern over the descendant axis —
/// the general query class the containment-join decomposition of
/// Li & Moon [12] serves. Linear paths are the special case with no
/// predicates (see query/path_query.h).
struct TwigQuery {
  std::vector<TwigStep> steps;  // the spine, outermost first
};

/// Parses `//name[pred]...//name[pred]...` where every predicate is
/// itself a full twig pattern in brackets. Only the descendant axis is
/// supported (child-axis parenthood is not derivable from PBiTree
/// codes; see ParsePathQuery).
StatusOr<TwigQuery> ParseTwigQuery(std::string_view text);

/// Per-join measurements of one evaluation.
struct TwigQueryStats {
  uint64_t joins = 0;        // containment joins executed
  uint64_t semijoins = 0;    // predicate filters applied
  uint64_t final_count = 0;  // distinct matches of the spine's last step
};

/// \brief Evaluates a twig pattern bottom-up:
///  - a predicate filters its step's element set to those elements
///    having at least one descendant matching the predicate pattern
///    (a containment join used as a semijoin, keeping the distinct
///    ancestor column);
///  - the spine then proceeds like a linear path query over the
///    filtered sets.
/// Returns the distinct elements matching the spine's last step (the
/// XPath answer set); the caller drops the returned set's file.
StatusOr<ElementSet> EvaluateTwigQuery(BufferManager* bm, const DataTree& tree,
                                       const PBiTreeSpec& spec,
                                       const TwigQuery& query,
                                       const RunOptions& options,
                                       TwigQueryStats* stats = nullptr);

/// Provider-based overload: evaluates against any source of element
/// sets (e.g. a persistent Catalog — what pbitree_cli uses).
StatusOr<ElementSet> EvaluateTwigQuery(BufferManager* bm,
                                       const ElementSetProvider& provider,
                                       const PBiTreeSpec& spec,
                                       const TwigQuery& query,
                                       const RunOptions& options,
                                       TwigQueryStats* stats = nullptr);

/// Deduplicates the *ancestor* column of a join-result pair file into an
/// element set (the semijoin primitive; mirror of DistinctDescendants).
StatusOr<ElementSet> DistinctAncestors(BufferManager* bm,
                                       const HeapFile& pair_file,
                                       PBiTreeSpec spec, size_t work_pages);

}  // namespace pbitree

#endif  // PBITREE_QUERY_TWIG_QUERY_H_
