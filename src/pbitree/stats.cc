#include "pbitree/stats.h"

#include <algorithm>
#include <bit>

namespace pbitree {

namespace {

int FloorLog2(uint64_t n) {
  if (n <= 1) return 0;
  return 63 - std::countl_zero(n);
}

/// splitmix64 finaliser: sketch cell of a code.
size_t SketchCell(uint64_t key) {
  uint64_t z = key + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<size_t>((z ^ (z >> 31)) % PBiTreeStats::kBuckets);
}

}  // namespace

StatusOr<PBiTreeStats> PBiTreeStats::Collect(BufferManager* bm,
                                             const ElementSet& set) {
  PBITREE_RETURN_IF_ERROR(ValidateSpec(set.spec));
  PBiTreeStats stats;
  stats.tree_height_ = set.spec.height;
  stats.bucket_level_ =
      std::min(FloorLog2(kBuckets), set.spec.height - 1);
  stats.num_buckets_ = size_t{1} << stats.bucket_level_;
  stats.buckets_.assign(stats.num_buckets_, 0);

  const int h_cut = set.spec.height - 1 - stats.bucket_level_;
  stats.own_sketch_.assign(set.spec.height, {});
  stats.rolled_sketch_.assign(set.spec.height, {});

  HeapFile::Scanner scan(bm, set.file);
  ElementRecord rec;
  Status st;
  while (scan.NextElement(&rec, &st)) {
    ++stats.total_;
    const int h = HeightOf(rec.code);
    ++stats.height_counts_[h];
    // Single-bucket assignment by the leftmost level-L descendant —
    // the same routing VPJ uses for its descendant side.
    Code anchor = AncestorAtHeight(StartOf(rec.code), h_cut);
    size_t bucket = static_cast<size_t>(anchor >> (h_cut + 1));
    ++stats.buckets_[bucket];
    // Sketches: own code at its height, rolled code at every height
    // above (F(n, height(n)) = n, so the rolled sketch covers h too).
    ++stats.own_sketch_[h][SketchCell(rec.code)];
    for (int hh = h; hh < set.spec.height; ++hh) {
      ++stats.rolled_sketch_[hh][SketchCell(AncestorAtHeight(rec.code, hh))];
    }
  }
  PBITREE_RETURN_IF_ERROR(st);
  return stats;
}

int PBiTreeStats::MedianHeight() const {
  if (total_ == 0) return 0;
  uint64_t seen = 0;
  for (int h = 0; h < 64; ++h) {
    seen += height_counts_[h];
    if (seen * 2 >= total_) return h;
  }
  return 63;
}

double PBiTreeStats::SkewFactor() const {
  if (total_ == 0 || num_buckets_ == 0) return 0.0;
  uint64_t max_bucket = *std::max_element(buckets_.begin(), buckets_.end());
  double avg = static_cast<double>(total_) / num_buckets_;
  return avg > 0 ? max_bucket / avg : 0.0;
}

uint64_t EstimateJoinSelectivity(const PBiTreeStats& a, const PBiTreeStats& d) {
  if (a.total_ == 0 || d.total_ == 0) return 0;
  if (a.tree_height_ != d.tree_height_) {
    return 0;  // incompatible statistics
  }
  // (x, y) is a containment pair iff F(y, h) == x with h = height(x)
  // (Lemma 1), so the join size is exactly
  //     sum over h of  sum over codes c at height h:
  //       |{x in A at height h, x == c}| * |{y in D, F(y, h) == c}|
  // estimated per height as the dot product of A's own-code sketch and
  // D's rolled sketch, minus the expected collision mass
  // T_A * T_D / k (AMS correction), rescaled by k / (k - 1).
  const double k = static_cast<double>(PBiTreeStats::kBuckets);
  double expected = 0.0;
  for (int h = 1; h < a.tree_height_; ++h) {
    const uint64_t t_a = a.height_counts_[h];
    if (t_a == 0) continue;
    // D elements strictly below height h (height h itself would mean
    // x == y, never a proper pair).
    uint64_t t_d = 0;
    for (int hh = 0; hh < h; ++hh) t_d += d.height_counts_[hh];
    if (t_d == 0) continue;

    double dot = 0.0;
    for (size_t c = 0; c < PBiTreeStats::kBuckets; ++c) {
      // Remove D's own height-h population from the rolled cell so the
      // self/equal-height mass is not counted.
      double rolled = static_cast<double>(d.rolled_sketch_[h][c]);
      dot += static_cast<double>(a.own_sketch_[h][c]) * rolled;
    }
    // The rolled sketch at height h also contains D elements at heights
    // h..tree_height-1... no: it contains heights <= h; subtract the
    // expected contribution of D's exactly-height-h elements, which can
    // never be proper descendants of height-h ancestors.
    double t_d_incl = t_d + static_cast<double>(d.height_counts_[h]);
    double corrected =
        (dot - static_cast<double>(t_a) * t_d_incl / k) * (k / (k - 1.0));
    // The equal-height exclusion is already approximately handled by the
    // collision correction; clamp at zero.
    if (corrected > 0) expected += corrected;
  }
  return static_cast<uint64_t>(expected);
}

}  // namespace pbitree
