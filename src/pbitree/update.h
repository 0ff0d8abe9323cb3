#ifndef PBITREE_PBITREE_UPDATE_H_
#define PBITREE_PBITREE_UPDATE_H_

#include <vector>

#include "common/status.h"
#include "pbitree/code.h"
#include "xml/data_tree.h"

namespace pbitree {

/// \brief Dynamic code allocation — the update story of Section 2.3.2.
///
/// The paper observes that virtual nodes "may serve as placeholders and
/// thus be advantageous to update": a document binarized with slack
/// (BinarizeOptions::slack_levels) leaves unused PBiTree positions into
/// which new elements can be inserted *without re-encoding anything* —
/// unlike document-offset region codes, where an insertion shifts every
/// following Start/End.
///
/// AllocateChildCode finds a code for a new child of `parent` that
///  1. lies inside parent's subtree (so ancestor tests keep working),
///  2. is not equal to, an ancestor of, or a descendant of any existing
///     sibling subtree (so the new element is exactly a child),
/// preferring the siblings' level (the Algorithm-1 placement heuristic)
/// and descending level by level when that level is full. Returns the
/// typed SlackExhausted condition (Status::IsSlackExhausted) when the
/// subtree has no free slot left — the document must then be
/// re-binarized with more slack, and callers such as the segment layer
/// can detect the condition and trigger that fallback.
StatusOr<Code> AllocateChildCode(Code parent, const std::vector<Code>& siblings,
                                 const PBiTreeSpec& spec);

/// Convenience wrapper: appends a child element to a binarized tree and
/// assigns it a code via AllocateChildCode.
StatusOr<NodeId> InsertElement(DataTree* tree, NodeId parent,
                               std::string_view tag, const PBiTreeSpec& spec);

}  // namespace pbitree

#endif  // PBITREE_PBITREE_UPDATE_H_
