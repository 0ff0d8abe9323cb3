#ifndef PBITREE_FRAMEWORK_PLANNER_H_
#define PBITREE_FRAMEWORK_PLANNER_H_

#include <string>
#include <string_view>

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

/// Reverse of AlgorithmName (case-insensitive, so "vpj" names VPJ; the
/// wire protocol of the serve layer uses these names). False when
/// `name` matches no algorithm.
bool ParseAlgorithm(std::string_view name, Algorithm* out);

/// Access-path properties of a join input, as the optimizer would see
/// them (Table 1's row labels).
struct InputProperties {
  bool indexed = false;
  bool sorted = false;
};

/// \brief Algorithm selection of the PBiTree containment query
/// processing framework (Table 1 of the paper):
///
///   indexed  sorted   choice
///      yes     no     INLJN
///       no    yes     stack-tree
///      yes    yes     Anc_Des_B+
///       no     no     MHCJ+Rollup or VPJ (partitioning based — the
///                     paper's new contribution; previously "Unknown")
///
/// For the neither-sorted-nor-indexed row, `ancestor_single_height`
/// routes single-height ancestor sets to SHCJ and multi-height ones to
/// VPJ (MHCJ+Rollup is its equal-cost alternative).
Algorithm ChooseAlgorithm(const InputProperties& a, const InputProperties& d,
                          bool ancestor_single_height);

}  // namespace pbitree

#endif  // PBITREE_FRAMEWORK_PLANNER_H_
