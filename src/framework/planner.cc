#include "framework/planner.h"

#include "join/algorithm_registry.h"

namespace pbitree {

const char* AlgorithmName(Algorithm alg) { return GetAlgorithmInfo(alg).name; }

Algorithm ChooseAlgorithm(const InputProperties& a, const InputProperties& d,
                          bool ancestor_single_height) {
  if (a.sorted && d.sorted) return Algorithm::kStackTree;
  return ancestor_single_height ? Algorithm::kShcj : Algorithm::kVpj;
}

}  // namespace pbitree
