#ifndef PBITREE_DATAGEN_SYNTHETIC_H_
#define PBITREE_DATAGEN_SYNTHETIC_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "join/element_set.h"

namespace pbitree {

/// \brief Parameters of one synthetic containment-join dataset
/// (Section 4.1.1 of the paper).
///
/// Elements are drawn directly in PBiTree code space: ancestors at the
/// heights of `a_heights`, descendants at `d_heights`. A fraction
/// `match_fraction` of the descendants is planted inside the subtree of
/// a uniformly chosen ancestor (controlling the selectivity — the
/// average number of matched descendants per ancestor); the rest are
/// placed uniformly at random on their level, where a sparse ancestor
/// set makes accidental matches rare.
struct SyntheticSpec {
  int tree_height = 40;
  uint64_t a_count = 10000;
  uint64_t d_count = 10000;
  std::vector<int> a_heights = {10};
  std::vector<int> d_heights = {2};
  double match_fraction = 0.9;
  uint64_t seed = 42;
};

/// One generated dataset: the two unsorted, unindexed element sets.
struct SyntheticDataset {
  ElementSet a;
  ElementSet d;
};

/// Generates a dataset per `spec`. Elements are emitted in random
/// order (the sets are neither sorted nor indexed, the paper's target
/// configuration). Fails if a level cannot hold the requested count.
StatusOr<SyntheticDataset> GenerateSynthetic(BufferManager* bm,
                                             const SyntheticSpec& spec);

/// \brief One of the paper's 16 named datasets (SLLH ... MSSL).
struct NamedSyntheticSpec {
  std::string name;  // 4-char shorthand of Section 4.1.1
  SyntheticSpec spec;
};

/// The 16 canonical datasets of Table 2(a)/(b). `scale` multiplies the
/// element counts (1.0 = the paper's L = 10^6, S = 10^4); heights for
/// the multi-height group follow the H_A/H_D columns of Table 2(b).
std::vector<NamedSyntheticSpec> CanonicalSyntheticSpecs(double scale,
                                                        uint64_t seed = 42);

/// Looks up one canonical spec by name (e.g. "SLLH"); NotFound if the
/// name is not one of the 16.
StatusOr<SyntheticSpec> CanonicalSpecByName(const std::string& name,
                                            double scale, uint64_t seed = 42);

}  // namespace pbitree

#endif  // PBITREE_DATAGEN_SYNTHETIC_H_
