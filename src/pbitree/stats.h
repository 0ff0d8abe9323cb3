#ifndef PBITREE_PBITREE_STATS_H_
#define PBITREE_PBITREE_STATS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "join/element_set.h"

namespace pbitree {

/// \brief Structural statistics over an element set — the Section 6
/// outlook made concrete: "the regular structure of the PBiTree brings
/// about new possibilities to maintain the statistics of the
/// corresponding data tree, which can be in turn exploited in query
/// processing".
///
/// One scan collects:
///  - per-height element counts (the horizontal-partition sizes MHCJ
///    would create, and the rollup-height decision input), and
///  - a subtree histogram: element counts per level-L subtree (the
///    F(., h_L) bucket of every element), i.e. exactly the vertical
///    partition sizes VPJ would create at that cut — so partition skew
///    is predictable before partitioning.
///
/// For join-size estimation a third structure is kept: per height h, a
/// hashed histogram ("sketch") of the set's elements *at* height h
/// keyed by their own code (the ancestor role) and of *all* elements
/// keyed by their rolled code F(., h) (the descendant role). Because
/// (a, d) is a containment pair iff F(d, height(a)) == a, the join size
/// is exactly the per-height dot product of one set's own-code sketch
/// with the other's rolled sketch — no uniformity assumption; hash
/// collisions add noise that the standard AMS correction removes in
/// expectation.
class PBiTreeStats {
 public:
  /// Number of subtree buckets (the histogram's level L is chosen as
  /// log2(kBuckets), clamped to the tree height) and of sketch cells.
  static constexpr size_t kBuckets = 256;

  /// Collects statistics with one scan of `set`.
  static StatusOr<PBiTreeStats> Collect(BufferManager* bm,
                                        const ElementSet& set);

  uint64_t total() const { return total_; }
  uint64_t CountAtHeight(int h) const { return height_counts_[h]; }
  /// Heights weighted by population: the median element height.
  int MedianHeight() const;
  /// Histogram bucket population (bucket = level-L subtree index).
  uint64_t BucketCount(size_t bucket) const { return buckets_[bucket]; }
  int bucket_level() const { return bucket_level_; }
  size_t num_buckets() const { return num_buckets_; }

  /// Largest bucket divided by the average bucket population — the
  /// skew factor VPJ's partition sizing should anticipate.
  double SkewFactor() const;

  friend uint64_t EstimateJoinSelectivity(const PBiTreeStats& a,
                                          const PBiTreeStats& d);

 private:
  uint64_t total_ = 0;
  std::array<uint64_t, 64> height_counts_{};
  std::vector<uint64_t> buckets_;
  int bucket_level_ = 0;
  size_t num_buckets_ = 0;
  int tree_height_ = 0;
  /// own_sketch_[h][c]: elements at height h whose code hashes to cell
  /// c. rolled_sketch_[h][c]: elements (of height <= h) whose rolled
  /// code F(., h) hashes to cell c.
  std::vector<std::array<uint32_t, kBuckets>> own_sketch_;
  std::vector<std::array<uint32_t, kBuckets>> rolled_sketch_;
};

/// Expected result count of the containment join a <| d: the summed
/// per-height sketch dot products with AMS collision correction.
/// Tracks both uniform and heavily correlated (planted) workloads
/// within a small factor (see stats_test) — what an optimizer needs.
uint64_t EstimateJoinSelectivity(const PBiTreeStats& a, const PBiTreeStats& d);

}  // namespace pbitree

#endif  // PBITREE_PBITREE_STATS_H_
