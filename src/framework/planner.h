#ifndef PBITREE_FRAMEWORK_PLANNER_H_
#define PBITREE_FRAMEWORK_PLANNER_H_

#include <string>

namespace pbitree {

/// The containment-join algorithms of the framework.
enum class Algorithm {
  kShcj,        // single-height hash equijoin (Algorithm 2)
  kMhcj,        // per-height horizontal partitioning (Algorithm 3)
  kMhcjRollup,  // rollup to one height + false-hit filter (Algorithm 4)
  kVpj,         // vertical partitioning (Algorithm 5)
  kInljn,       // index nested loops (adapted from [20])
  kStackTree,   // stack-tree-desc (adapted from [1])
  kMpmgjn,      // multi-predicate merge join (adapted from [20])
  kAdb,         // Anc_Des_B+ (adapted from [4])
};

const char* AlgorithmName(Algorithm alg);

/// Access-path properties of a join input, as the optimizer would see
/// them (Table 1's row labels). Indexes are built per join and never
/// kept, so no input is ever indexed and only sortedness is recorded.
struct InputProperties {
  bool sorted = false;
};

/// \brief Algorithm selection of the PBiTree containment query
/// processing framework: the unindexed half of Table 1 of the paper,
///
///   sorted   choice
///     yes    stack-tree
///      no    SHCJ or VPJ (partitioning based — the paper's new
///            contribution; previously "Unknown")
///
/// The indexed rows (INLJN, Anc_Des_B+) are left out because the system
/// keeps no index on a stored set or an intermediate result: INLJN and
/// ADB+ always build theirs on the fly, which is exactly the naive mode
/// the partitioning algorithms beat. Unless both inputs are sorted,
/// `ancestor_single_height` routes single-height ancestor sets to SHCJ
/// and multi-height ones to VPJ (MHCJ+Rollup is its equal-cost
/// alternative).
Algorithm ChooseAlgorithm(const InputProperties& a, const InputProperties& d,
                          bool ancestor_single_height);

}  // namespace pbitree

#endif  // PBITREE_FRAMEWORK_PLANNER_H_
