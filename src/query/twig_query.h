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
/// Catalog, or anything else. The returned sets are borrowed: the
/// evaluator reads them and never drops them, so a provider may hand
/// out stored sets directly. Whatever a provider creates, it (or its
/// owner) drops after the evaluation.
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
/// Li & Moon [12] serves. A linear path (`//a//b//c`) is the special
/// case with no predicates.
struct TwigQuery {
  std::vector<TwigStep> steps;  // the spine, outermost first
};

/// Parses `//name[pred]...//name[pred]...` where every predicate is
/// itself a full twig pattern in brackets. Only the descendant axis is
/// supported: the child axis needs data-tree parenthood, which PBiTree
/// codes alone do not encode (binarization places children several
/// PBiTree levels below their parent).
StatusOr<TwigQuery> ParseTwigQuery(std::string_view text);

/// Measurements of one evaluation.
struct TwigQueryStats {
  std::vector<RunResult> joins;  // every containment join, in run order
  uint64_t semijoins = 0;  // joins that kept their ancestor column
  uint64_t final_count = 0;  // distinct matches of the spine's last step
};

/// \brief Evaluates a twig pattern with two folds of containment joins.
///
/// A pattern node maps to a proper descendant of its parent's image,
/// and a step's set is its tag's elements that satisfy every predicate.
///  - The answer is a front-to-back fold over the spine: join the
///    current set (as ancestors) with the next step's set and keep the
///    distinct descendants. A predicate-free pattern of n steps runs
///    exactly n-1 joins.
///  - A predicate keeps the elements of its step that have a descendant
///    among the predicate's heads: the first-step elements that head a
///    full chain of the predicate pattern, found by a back-to-front
///    fold that keeps distinct ancestors (semijoins).
/// Returns the distinct elements matching the spine's last step (the
/// XPath answer set, ordered by code); the caller drops its file.
StatusOr<ElementSet> EvaluateTwigQuery(BufferManager* bm,
                                       const ElementSetProvider& provider,
                                       const PBiTreeSpec& spec,
                                       const TwigQuery& query,
                                       const RunOptions& options,
                                       TwigQueryStats* stats = nullptr);

/// DataTree overload: extracts each step's tag set from a binarized
/// document and drops the extracted sets afterwards.
StatusOr<ElementSet> EvaluateTwigQuery(BufferManager* bm, const DataTree& tree,
                                       const PBiTreeSpec& spec,
                                       const TwigQuery& query,
                                       const RunOptions& options,
                                       TwigQueryStats* stats = nullptr);

}  // namespace pbitree

#endif  // PBITREE_QUERY_TWIG_QUERY_H_
