#include "pbitree/update.h"

#include <algorithm>
#include <string>

namespace pbitree {

namespace {

/// Returns the sibling interval intersecting `code`'s subtree, or
/// nullptr when the slot is free. PBiTree subtree intervals either
/// nest or are disjoint, so at most one *maximal* sibling interval can
/// intersect; `sorted_intervals` holds disjoint intervals sorted by lo.
const CodeInterval* ConflictingSibling(
    Code code, const std::vector<CodeInterval>& sorted_intervals) {
  CodeInterval mine = SubtreeInterval(code);
  auto it = std::upper_bound(
      sorted_intervals.begin(), sorted_intervals.end(), mine.hi,
      [](Code v, const CodeInterval& iv) { return v < iv.lo; });
  if (it != sorted_intervals.begin()) {
    const CodeInterval& prev = *std::prev(it);
    // prev.lo <= mine.hi by construction; overlap iff prev.hi >= mine.lo.
    if (prev.hi >= mine.lo) return &prev;
  }
  return nullptr;
}

}  // namespace

StatusOr<Code> AllocateChildCode(Code parent, const std::vector<Code>& siblings,
                                 const PBiTreeSpec& spec) {
  PBITREE_RETURN_IF_ERROR(ValidateSpec(spec));
  if (!IsValidCode(parent, spec)) {
    return Status::InvalidArgument("invalid parent code");
  }
  const int parent_height = HeightOf(parent);
  if (parent_height == 0) {
    return Status::SlackExhausted(
        "parent is a PBiTree leaf: no room below (re-binarize with slack)");
  }

  std::vector<CodeInterval> intervals;
  intervals.reserve(siblings.size());
  for (Code s : siblings) {
    if (!IsAncestor(parent, s)) {
      return Status::InvalidArgument("sibling " + std::to_string(s) +
                                     " is not a descendant of the parent");
    }
    intervals.push_back(SubtreeInterval(s));
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const CodeInterval& x, const CodeInterval& y) {
              return x.lo < y.lo;
            });

  // Starting level. With existing siblings, start at their level (the
  // Algorithm-1 contiguous-siblings heuristic). For a first dynamic
  // child, split the parent's depth budget evenly — a child at half
  // height leaves room for ~sqrt(capacity) siblings, each with
  // ~sqrt(capacity) descendants, the balanced default when nothing is
  // known about the future workload. Descend level by level when the
  // starting level is fully covered.
  int start_height = (parent_height - 1) / 2;
  if (!siblings.empty()) {
    int max_sibling_height = 0;
    for (Code s : siblings) {
      max_sibling_height = std::max(max_sibling_height, HeightOf(s));
    }
    start_height = std::min(parent_height - 1, max_sibling_height);
  }

  CodeInterval span = SubtreeInterval(parent);
  for (int h = start_height; h >= 0; --h) {
    // Nodes at height h inside the parent's subtree: first is the
    // h-ancestor of the leftmost leaf, stepping by 2^(h+1).
    const Code step = Code{2} << h;
    Code c = AncestorAtHeight(span.lo, h);
    while (c <= span.hi) {
      const CodeInterval* hit =
          c == parent ? nullptr : ConflictingSibling(c, intervals);
      if (c != parent && hit == nullptr) return c;
      // Advance with guaranteed progress: when c's subtree lies inside
      // the conflicting sibling, jump to the first height-h node past
      // that sibling; otherwise (c is the parent, or an ancestor of a
      // nested sibling) the next same-level slot is the candidate.
      Code next = c + step;
      if (hit != nullptr && hit->hi >= EndOf(c) && hit->hi < span.hi) {
        next = std::max(next, AncestorAtHeight(hit->hi + 1, h));
      }
      if (next <= c) break;  // overflow guard
      c = next;
    }
  }
  return Status::SlackExhausted(
      "no free slot under parent " + std::to_string(parent) +
      "; re-binarize with more slack levels");
}

StatusOr<NodeId> InsertElement(DataTree* tree, NodeId parent,
                               std::string_view tag, const PBiTreeSpec& spec) {
  const auto& pnode = tree->node(parent);
  if (pnode.code == kInvalidCode) {
    return Status::InvalidArgument("parent not binarized");
  }
  std::vector<Code> siblings;
  siblings.reserve(pnode.children.size());
  for (NodeId c : pnode.children) {
    siblings.push_back(tree->node(c).code);
  }
  PBITREE_ASSIGN_OR_RETURN(Code code,
                           AllocateChildCode(pnode.code, siblings, spec));
  NodeId id = tree->AddChild(parent, tag);
  tree->node(id).code = code;
  return id;
}

}  // namespace pbitree
