#include "pbitree/binarize.h"

#include <bit>
#include <string>
#include <vector>

namespace pbitree {

namespace {

/// ceil(log2(n)) for n >= 1.
int CeilLog2(uint64_t n) {
  if (n <= 1) return 0;
  return 64 - std::countl_zero(n - 1);
}

/// Level step for the children of a node with `n` children:
/// ceil(log2(n)) per Algorithm 1, at least 1, plus the update headroom.
int ChildStep(size_t n, int fanout_slack) {
  int k = CeilLog2(n);
  if (k == 0) k = 1;  // a single child still needs its own level
  return k + fanout_slack;
}

/// Computes the PBiTree level of every node under the paper's placement
/// heuristic: level(child of node at level l with n siblings) = l + k,
/// k = ceil(log2(n)) (+ fanout slack). Iterative preorder; returns the
/// maximum level.
int ComputeLevels(const DataTree& tree, int fanout_slack,
                  std::vector<int>* levels) {
  levels->assign(tree.size(), 0);
  int max_level = 0;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    const auto& node = tree.node(id);
    if (node.children.empty()) continue;
    int child_level = (*levels)[id] + ChildStep(node.children.size(), fanout_slack);
    if (child_level > max_level) max_level = child_level;
    for (NodeId c : node.children) {
      (*levels)[c] = child_level;
      stack.push_back(c);
    }
  }
  return max_level;
}

}  // namespace

StatusOr<int> RequiredHeight(const DataTree& tree) {
  if (tree.empty()) return Status::InvalidArgument("empty data tree");
  std::vector<int> levels;
  int max_level = ComputeLevels(tree, /*fanout_slack=*/0, &levels);
  int required = max_level + 1;
  if (required > kMaxTreeHeight) {
    return Status::InvalidArgument(
        "data tree needs PBiTree height " + std::to_string(required) +
        " > 63; code space of uint64_t exhausted");
  }
  return required;
}

Status BinarizeTree(DataTree* tree, PBiTreeSpec* spec,
                    const BinarizeOptions& options) {
  if (tree->empty()) return Status::InvalidArgument("empty data tree");

  std::vector<int> levels;
  if (options.fanout_slack < 0) {
    return Status::InvalidArgument("fanout_slack must be >= 0");
  }
  int max_level = ComputeLevels(*tree, options.fanout_slack, &levels);

  int height = max_level + 1 + options.slack_levels;
  if (options.forced_height > 0) {
    if (options.forced_height < max_level + 1) {
      return Status::InvalidArgument(
          "forced_height " + std::to_string(options.forced_height) +
          " below required " + std::to_string(max_level + 1));
    }
    height = options.forced_height;
  }
  if (height > kMaxTreeHeight) {
    return Status::InvalidArgument("required PBiTree height " +
                                   std::to_string(height) + " exceeds 63");
  }
  spec->height = height;

  // Algorithm 1, iterative: propagate top-down codes (alpha, l) and set
  // node.code = G(alpha, l). The recursion of the paper is replaced by
  // an explicit stack so arbitrarily deep documents are safe.
  struct Frame {
    NodeId id;
    uint64_t alpha;
  };
  std::vector<Frame> stack = {{tree->root(), 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    auto& node = tree->node(f.id);
    node.code = CodeOfTopDown(f.alpha, levels[f.id], *spec);
    if (node.children.empty()) continue;
    int k = ChildStep(node.children.size(), options.fanout_slack);
    for (size_t i = 0; i < node.children.size(); ++i) {
      stack.push_back(
          {node.children[i], (f.alpha << k) + static_cast<uint64_t>(i)});
    }
  }
  return Status::OK();
}

}  // namespace pbitree
