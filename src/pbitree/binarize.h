#ifndef PBITREE_PBITREE_BINARIZE_H_
#define PBITREE_PBITREE_BINARIZE_H_

#include <cstdint>

#include "common/status.h"
#include "pbitree/code.h"
#include "xml/data_tree.h"

namespace pbitree {

/// \brief Options for BinarizeTree.
struct BinarizeOptions {
  /// Extra PBiTree levels reserved below the deepest mapped node. The
  /// paper notes virtual nodes "may serve as placeholders and thus be
  /// advantageous to update"; slack reserves code space for future
  /// inserts without re-encoding.
  int slack_levels = 0;

  /// Extra bits of sibling space: children of a node with n children
  /// are placed ceil(log2(n)) + fanout_slack levels below it instead of
  /// the minimal ceil(log2(n)). Each bit leaves half of every sibling
  /// level free for future AllocateChildCode insertions (widening a
  /// node's fanout, which slack_levels alone cannot provide).
  int fanout_slack = 0;

  /// If > 0, force the PBiTree height to exactly this value (must be at
  /// least the minimum required height). 0 means "minimum + slack".
  int forced_height = 0;
};

/// \brief Embeds `tree` into a PBiTree (Algorithm 1 of the paper) and
/// writes each node's PBiTree code into DataTree::Node::code.
///
/// Children of a node mapped to PBiTree level `l` are placed
/// contiguously at level `l + k`, k = ceil(log2(#children)) — the
/// paper's heuristic that keeps siblings adjacent. The resulting
/// PBiTree height H is returned in `spec`. Fails with InvalidArgument
/// if the required height exceeds 63 (code space of uint64_t).
Status BinarizeTree(DataTree* tree, PBiTreeSpec* spec,
                    const BinarizeOptions& options = {});

/// Minimum PBiTree height required to embed `tree` under the paper's
/// heuristic (without assigning codes).
StatusOr<int> RequiredHeight(const DataTree& tree);

}  // namespace pbitree

#endif  // PBITREE_PBITREE_BINARIZE_H_
