#include "datagen/synthetic.h"

#include <algorithm>
#include <unordered_set>

#include "common/random.h"

namespace pbitree {

namespace {

/// Number of nodes on the level of height `h` in a PBiTree of height H.
uint64_t SlotsAtHeight(int h, int tree_height) {
  return uint64_t{1} << (tree_height - 1 - h);
}

/// Uniform random node at height `h`.
Code RandomAtHeight(Random* rng, int h, int tree_height) {
  uint64_t alpha = rng->Uniform(SlotsAtHeight(h, tree_height));
  return ((2 * alpha + 1) << h);
}

/// Uniform random descendant of `anc` at height `h` (< height(anc)).
Code RandomDescendant(Random* rng, Code anc, int h) {
  int ha = HeightOf(anc);
  uint64_t slots = uint64_t{1} << (ha - h);
  uint64_t j = rng->Uniform(slots);
  Code first = AncestorAtHeight(StartOf(anc), h);
  return first + j * (Code{2} << h);
}

}  // namespace

StatusOr<SyntheticDataset> GenerateSynthetic(BufferManager* bm,
                                             const SyntheticSpec& spec) {
  PBiTreeSpec tree{spec.tree_height};
  PBITREE_RETURN_IF_ERROR(ValidateSpec(tree));
  if (spec.a_heights.empty() || spec.d_heights.empty()) {
    return Status::InvalidArgument("height lists must be non-empty");
  }
  // Keep every level at most ~25% occupied so random placement stays
  // sparse (few accidental containments) and sampling terminates; the
  // per-height load is the count divided by the number of heights.
  const uint64_t a_per_height =
      spec.a_count / spec.a_heights.size() + 1;
  const uint64_t d_per_height =
      spec.d_count / spec.d_heights.size() + 1;
  for (int h : spec.a_heights) {
    if (h < 1 || h >= spec.tree_height - 1) {
      return Status::InvalidArgument("ancestor height out of range");
    }
    if (SlotsAtHeight(h, spec.tree_height) < 4 * a_per_height) {
      return Status::InvalidArgument(
          "level of height " + std::to_string(h) +
          " too small for the requested ancestor count");
    }
  }
  for (int h : spec.d_heights) {
    if (h < 0 || h >= spec.tree_height - 1) {
      return Status::InvalidArgument("descendant height out of range");
    }
    if (SlotsAtHeight(h, spec.tree_height) < 4 * d_per_height) {
      return Status::InvalidArgument(
          "level of height " + std::to_string(h) +
          " too small for the requested descendant count");
    }
  }

  Random rng(spec.seed);

  // ---- Ancestor set: unique random codes at the requested heights.
  std::vector<Code> a_codes;
  a_codes.reserve(spec.a_count);
  {
    std::unordered_set<Code> seen;
    seen.reserve(spec.a_count * 2);
    while (a_codes.size() < spec.a_count) {
      int h = spec.a_heights[rng.Uniform(spec.a_heights.size())];
      Code c = RandomAtHeight(&rng, h, spec.tree_height);
      if (seen.insert(c).second) a_codes.push_back(c);
    }
  }

  // Merged coverage intervals of the ancestor subtrees, so noise
  // descendants can be placed strictly outside them — the generator's
  // selectivity knob then controls the result count directly (noise
  // never matches by accident).
  std::vector<CodeInterval> coverage;
  coverage.reserve(a_codes.size());
  for (Code c : a_codes) coverage.push_back(SubtreeInterval(c));
  std::sort(coverage.begin(), coverage.end(),
            [](const CodeInterval& x, const CodeInterval& y) {
              return x.lo < y.lo;
            });
  {
    std::vector<CodeInterval> merged;
    for (const CodeInterval& iv : coverage) {
      if (!merged.empty() && iv.lo <= merged.back().hi + 1) {
        merged.back().hi = std::max(merged.back().hi, iv.hi);
      } else {
        merged.push_back(iv);
      }
    }
    coverage = std::move(merged);
  }
  auto covered = [&coverage](Code c) {
    auto it = std::upper_bound(
        coverage.begin(), coverage.end(), c,
        [](Code v, const CodeInterval& iv) { return v < iv.lo; });
    return it != coverage.begin() && c <= std::prev(it)->hi;
  };

  // ---- Descendant set: planted matches + out-of-coverage noise.
  // Planting picks an ancestor whose height exceeds the descendant
  // height; with mixed height lists a bounded number of retries keeps
  // the generator total.
  std::vector<Code> d_codes;
  d_codes.reserve(spec.d_count);
  {
    std::unordered_set<Code> seen;
    seen.reserve(spec.d_count * 2);
    while (d_codes.size() < spec.d_count) {
      int hd = spec.d_heights[rng.Uniform(spec.d_heights.size())];
      Code c = kInvalidCode;
      if (rng.Bernoulli(spec.match_fraction)) {
        for (int attempt = 0; attempt < 8; ++attempt) {
          Code anc = a_codes[rng.Uniform(a_codes.size())];
          if (HeightOf(anc) > hd) {
            c = RandomDescendant(&rng, anc, hd);
            break;
          }
        }
      }
      if (c == kInvalidCode) {
        // Noise: rejection-sample outside the ancestor coverage (a few
        // tries suffice at <= 25% occupancy; give up gracefully after
        // 32 so the generator stays total even on dense specs).
        for (int attempt = 0; attempt < 32; ++attempt) {
          c = RandomAtHeight(&rng, hd, spec.tree_height);
          if (!covered(c)) break;
        }
      }
      if (seen.insert(c).second) d_codes.push_back(c);
    }
  }

  // ---- Materialise as element sets (random order = unsorted input).
  SyntheticDataset out;
  {
    PBITREE_ASSIGN_OR_RETURN(ElementSetBuilder b,
                             ElementSetBuilder::Create(bm, tree));
    for (Code c : a_codes) PBITREE_RETURN_IF_ERROR(b.AddCode(c));
    PBITREE_ASSIGN_OR_RETURN(out.a, b.Build());
  }
  {
    PBITREE_ASSIGN_OR_RETURN(ElementSetBuilder b,
                             ElementSetBuilder::Create(bm, tree));
    for (Code c : d_codes) PBITREE_RETURN_IF_ERROR(b.AddCode(c));
    PBITREE_ASSIGN_OR_RETURN(out.d, b.Build());
  }
  return out;
}

std::vector<NamedSyntheticSpec> CanonicalSyntheticSpecs(double scale,
                                                        uint64_t seed) {
  // Paper sizes: L = 10^6 elements, S = 10^4 elements.
  const auto large = static_cast<uint64_t>(1000000 * scale);
  const auto small = static_cast<uint64_t>(10000 * scale);
  // Selectivity knobs chosen to land near the #results bands of
  // Table 2(a)/(b): high ~ 0.9 of D planted, low ~ 0.09.
  const double hi = 0.9, lo = 0.09;

  // Multi-height H_A/H_D counts follow Table 2(b).
  struct Row {
    const char* name;
    bool multi;
    uint64_t na, nd;
    double mf;
    int ha_cnt, hd_cnt;
  };
  const Row rows[] = {
      {"SLLH", false, large, large, hi, 1, 1},
      {"SLSH", false, large, small, hi, 1, 1},
      {"SSLH", false, small, large, 2.0 * small / static_cast<double>(large), 1, 1},
      {"SSSH", false, small, small, hi, 1, 1},
      {"SLLL", false, large, large, lo, 1, 1},
      {"SLSL", false, large, small, lo / 2, 1, 1},
      {"SSLL", false, small, large, lo * small / static_cast<double>(large), 1, 1},
      {"SSSL", false, small, small, lo, 1, 1},
      {"MLLH", true, large, large, hi, 2, 6},
      {"MLSH", true, large, small, hi, 9, 9},
      {"MSLH", true, small, large, 1.5 * small / static_cast<double>(large), 2, 7},
      {"MSSH", true, small, small, hi, 7, 9},
      {"MLLL", true, large, large, lo / 2, 3, 7},
      {"MLSL", true, large, small, lo / 3, 7, 5},
      {"MSLL", true, small, large, lo * small / static_cast<double>(large), 7, 4},
      {"MSSL", true, small, small, lo, 3, 2},
  };

  std::vector<NamedSyntheticSpec> out;
  for (const Row& r : rows) {
    SyntheticSpec s;
    s.a_count = std::max<uint64_t>(r.na, 1);
    s.d_count = std::max<uint64_t>(r.nd, 1);
    s.match_fraction = std::min(r.mf, 0.95);
    s.seed = seed;
    s.a_heights.clear();
    s.d_heights.clear();
    // Ancestor heights start at 10; descendants at 2 upward, below the
    // ancestors.
    for (int i = 0; i < r.ha_cnt; ++i) s.a_heights.push_back(10 + i);
    for (int i = 0; i < r.hd_cnt; ++i) s.d_heights.push_back(2 + (i % 8));
    std::sort(s.d_heights.begin(), s.d_heights.end());
    s.d_heights.erase(std::unique(s.d_heights.begin(), s.d_heights.end()),
                      s.d_heights.end());

    // Tree height: the tightest level (the highest ancestor height)
    // sits at ~12.5% occupancy regardless of scale, so the clustering
    // of ancestors into shared subtrees — the source of rollup false
    // hits (Table 2(f)) and of VPJ partition skew — matches the
    // paper's dense real-world trees at every scale.
    auto need = [](int h, uint64_t per_height) {
      int bits = 1;
      while ((uint64_t{1} << bits) < 8 * per_height) ++bits;
      return h + 1 + bits;
    };
    uint64_t a_per = s.a_count / s.a_heights.size() + 1;
    uint64_t d_per = s.d_count / s.d_heights.size() + 1;
    int height = 0;
    for (int h : s.a_heights) height = std::max(height, need(h, a_per));
    for (int h : s.d_heights) height = std::max(height, need(h, d_per));
    s.tree_height = std::min(height, 62);
    out.push_back(NamedSyntheticSpec{r.name, std::move(s)});
  }
  return out;
}

StatusOr<SyntheticSpec> CanonicalSpecByName(const std::string& name,
                                            double scale, uint64_t seed) {
  for (NamedSyntheticSpec& s : CanonicalSyntheticSpecs(scale, seed)) {
    if (s.name == name) return std::move(s.spec);
  }
  return Status::NotFound("unknown canonical dataset '" + name + "'");
}

}  // namespace pbitree
