// Unit and property tests for the PBiTree code math of Section 2:
// Properties 1-2, Lemmas 1-4 and the G/alpha conversions, checked both
// on the paper's worked examples (Figure 2, H = 5) and exhaustively /
// randomly against a brute-force perfect binary tree.

#include "pbitree/code.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"

namespace pbitree {
namespace {

// ---- Brute-force reference: explicit perfect binary tree of height H.

/// Parent code of `c` in a PBiTree (reference implementation by
/// construction: strip the lowest set bit pattern one level up).
Code ReferenceParent(Code c) {
  int h = HeightOf(c);
  Code step = Code{1} << h;
  // The parent is at height h+1; it is either c + step or c - step,
  // whichever has height exactly h+1.
  Code up = c + step;
  if (HeightOf(up) == h + 1) return up;
  return c - step;
}

/// Brute-force ancestor check by climbing parents.
bool ReferenceIsAncestor(Code a, Code d, int tree_height) {
  Code root = Code{1} << (tree_height - 1);
  Code cur = d;
  while (cur != root) {
    cur = ReferenceParent(cur);
    if (cur == a) return true;
  }
  return a == root && d != root;
}

TEST(PBiTreeSpecTest, BasicGeometry) {
  PBiTreeSpec spec{5};
  EXPECT_EQ(spec.MaxCode(), 31u);
  EXPECT_EQ(spec.RootCode(), 16u);
  EXPECT_EQ(spec.LevelOfHeight(4), 0);
  EXPECT_EQ(spec.LevelOfHeight(0), 4);
}

TEST(PBiTreeSpecTest, ValidateRejectsBadHeights) {
  EXPECT_FALSE(ValidateSpec(PBiTreeSpec{0}).ok());
  EXPECT_FALSE(ValidateSpec(PBiTreeSpec{64}).ok());
  EXPECT_TRUE(ValidateSpec(PBiTreeSpec{1}).ok());
  EXPECT_TRUE(ValidateSpec(PBiTreeSpec{63}).ok());
}

TEST(HeightTest, PaperExamples) {
  // Figure 2: code 18 = 10010b is at height 1, level 3 (H = 5).
  PBiTreeSpec spec{5};
  EXPECT_EQ(HeightOf(18), 1);
  EXPECT_EQ(LevelOf(18, spec), 3);
  EXPECT_EQ(HeightOf(16), 4);
  EXPECT_EQ(LevelOf(16, spec), 0);
  EXPECT_EQ(HeightOf(1), 0);
  EXPECT_EQ(LevelOf(1, spec), 4);
}

TEST(AncestorFunctionTest, PaperExamples) {
  // Section 2.1: ancestors of node 18 at heights 2, 3, 4 are 20, 24, 16.
  EXPECT_EQ(AncestorAtHeight(18, 2), 20u);
  EXPECT_EQ(AncestorAtHeight(18, 3), 24u);
  EXPECT_EQ(AncestorAtHeight(18, 4), 16u);
  // F at the node's own height is the identity.
  EXPECT_EQ(AncestorAtHeight(18, 1), 18u);
}

TEST(AncestorFunctionTest, MatchesParentClimbExhaustively) {
  const int kH = 8;
  PBiTreeSpec spec{kH};
  for (Code c = 1; c <= spec.MaxCode(); ++c) {
    Code expect = c;
    for (int h = HeightOf(c); h < kH; ++h) {
      EXPECT_EQ(AncestorAtHeight(c, h), expect)
          << "code " << c << " height " << h;
      if (h + 1 < kH) expect = ReferenceParent(expect);
    }
  }
}

TEST(IsAncestorTest, ExhaustiveSmallTree) {
  const int kH = 7;
  PBiTreeSpec spec{kH};
  for (Code a = 1; a <= spec.MaxCode(); ++a) {
    for (Code d = 1; d <= spec.MaxCode(); ++d) {
      EXPECT_EQ(IsAncestor(a, d), ReferenceIsAncestor(a, d, kH))
          << "a=" << a << " d=" << d;
    }
  }
}

TEST(IsAncestorTest, NeverReflexive) {
  for (Code c : {1u, 2u, 16u, 18u, 21u, 31u}) {
    EXPECT_FALSE(IsAncestor(c, c));
    EXPECT_TRUE(IsAncestorOrSelf(c, c));
  }
}

TEST(TopDownCodeTest, PaperExample) {
  // Lemma 2 example: node 18 is the 5th node (alpha = 4) on level 3 of
  // the H = 5 tree: G(4, 3) = (1 + 2*4) * 2^(5-3-1) = 18.
  PBiTreeSpec spec{5};
  EXPECT_EQ(CodeOfTopDown(4, 3, spec), 18u);
  EXPECT_EQ(AlphaOf(18, spec), 4u);
}

TEST(TopDownCodeTest, GAndAlphaAreInverses) {
  PBiTreeSpec spec{10};
  for (int level = 0; level < spec.height; ++level) {
    uint64_t n = uint64_t{1} << level;
    for (uint64_t alpha = 0; alpha < n; ++alpha) {
      Code c = CodeOfTopDown(alpha, level, spec);
      EXPECT_EQ(LevelOf(c, spec), level);
      EXPECT_EQ(AlphaOf(c, spec), alpha);
    }
  }
}

TEST(TopDownCodeTest, CodesOnALevelAreDistinctAndOrdered) {
  PBiTreeSpec spec{9};
  for (int level = 0; level < spec.height; ++level) {
    Code prev = 0;
    for (uint64_t alpha = 0; alpha < (uint64_t{1} << level); ++alpha) {
      Code c = CodeOfTopDown(alpha, level, spec);
      EXPECT_GT(c, prev);
      prev = c;
    }
  }
}

TEST(RegionConversionTest, Lemma3PaperShapes) {
  // A node of height h spans (n - (2^h - 1), n + (2^h - 1)).
  EXPECT_EQ(ToRegion(16), (Region{1, 31}));   // root of H = 5
  EXPECT_EQ(ToRegion(18), (Region{17, 19}));
  EXPECT_EQ(ToRegion(1), (Region{1, 1}));     // leaf: degenerate region
  EXPECT_EQ(StartOf(20), 17u);
  EXPECT_EQ(EndOf(20), 23u);
}

TEST(RegionConversionTest, RegionNestingMatchesAncestry) {
  // For any two nodes, proper region nesting <=> proper ancestry.
  const int kH = 7;
  PBiTreeSpec spec{kH};
  for (Code a = 1; a <= spec.MaxCode(); ++a) {
    Region ra = ToRegion(a);
    for (Code d = 1; d <= spec.MaxCode(); ++d) {
      if (a == d) continue;
      Region rd = ToRegion(d);
      bool nested = ra.start <= rd.start && rd.end <= ra.end;
      EXPECT_EQ(nested, IsAncestor(a, d)) << "a=" << a << " d=" << d;
    }
  }
}

TEST(RegionConversionTest, BoundaryTiesNeedTheHeightGuard) {
  // The Lemma-3 conversion shares boundaries between a node and the
  // extreme leaves of its subtree: the one-sided Start test of the
  // original region coding is not sufficient on its own. This test
  // documents the tie the join algorithms must (and do) handle.
  EXPECT_EQ(StartOf(18), StartOf(17));  // 18's subtree starts at leaf 17
  EXPECT_EQ(EndOf(18), EndOf(19));      // and ends at leaf 19
  EXPECT_TRUE(IsAncestor(18, 17));
  EXPECT_FALSE(IsAncestor(17, 18));
}

TEST(SubtreeIntervalTest, MembershipEqualsDescendancy) {
  const int kH = 7;
  PBiTreeSpec spec{kH};
  for (Code a = 1; a <= spec.MaxCode(); ++a) {
    CodeInterval iv = SubtreeInterval(a);
    for (Code d = 1; d <= spec.MaxCode(); ++d) {
      bool inside = d >= iv.lo && d <= iv.hi;
      EXPECT_EQ(inside, d == a || IsAncestor(a, d)) << "a=" << a << " d=" << d;
    }
  }
}

TEST(PrefixConversionTest, Lemma4) {
  PBiTreeSpec spec{5};
  // Root: prefix "1" (length 1). Node 18 (h=1): bits 1001, length 4.
  EXPECT_EQ(ToPrefix(16, spec), (PrefixCode{1, 1}));
  EXPECT_EQ(ToPrefix(18, spec), (PrefixCode{9, 4}));
}

TEST(PrefixConversionTest, PrefixRelationMatchesAncestry) {
  const int kH = 7;
  PBiTreeSpec spec{kH};
  for (Code a = 1; a <= spec.MaxCode(); ++a) {
    PrefixCode pa = ToPrefix(a, spec);
    for (Code d = 1; d <= spec.MaxCode(); ++d) {
      PrefixCode pd = ToPrefix(d, spec);
      EXPECT_EQ(PrefixIsAncestor(pa, pd), IsAncestor(a, d))
          << "a=" << a << " d=" << d;
    }
  }
}

TEST(PrefixConversionTest, PrefixCodesAreUnique) {
  PBiTreeSpec spec{8};
  std::set<std::pair<uint64_t, int>> seen;
  for (Code c = 1; c <= spec.MaxCode(); ++c) {
    PrefixCode p = ToPrefix(c, spec);
    EXPECT_TRUE(seen.insert({p.bits, p.length}).second) << "code " << c;
  }
}

TEST(IsValidCodeTest, Bounds) {
  PBiTreeSpec spec{5};
  EXPECT_FALSE(IsValidCode(0, spec));
  EXPECT_TRUE(IsValidCode(1, spec));
  EXPECT_TRUE(IsValidCode(31, spec));
  EXPECT_FALSE(IsValidCode(32, spec));
}

TEST(LargeTreeTest, SixtyThreeLevelsWork) {
  // The full 64-bit code space: H = 63.
  PBiTreeSpec spec{63};
  Code root = spec.RootCode();
  EXPECT_EQ(HeightOf(root), 62);
  Code leaf = 1;
  EXPECT_TRUE(IsAncestor(root, leaf));
  EXPECT_EQ(AncestorAtHeight(leaf, 62), root);
  // Region of the root spans the whole space.
  EXPECT_EQ(ToRegion(root), (Region{1, spec.MaxCode()}));
}

TEST(RandomPropertyTest, TransitivityAndAntisymmetry) {
  PBiTreeSpec spec{40};
  Random rng(123);
  for (int i = 0; i < 20000; ++i) {
    Code x = rng.UniformRange(1, spec.MaxCode());
    Code y = rng.UniformRange(1, spec.MaxCode());
    // Antisymmetry.
    if (IsAncestor(x, y)) {
      EXPECT_FALSE(IsAncestor(y, x));
    }
    // Transitivity through a random ancestor of x.
    int hx = HeightOf(x);
    if (hx + 2 < spec.height) {
      Code anc = AncestorAtHeight(x, hx + 1 + static_cast<int>(rng.Uniform(
                                          spec.height - hx - 2)));
      EXPECT_TRUE(IsAncestorOrSelf(anc, x));
      if (IsAncestor(x, y) && IsAncestor(anc, x)) {
        EXPECT_TRUE(IsAncestor(anc, y));
      }
    }
  }
}

TEST(RandomPropertyTest, FAgreesWithRegionContainment) {
  PBiTreeSpec spec{40};
  Random rng(321);
  for (int i = 0; i < 20000; ++i) {
    Code x = rng.UniformRange(1, spec.MaxCode());
    Code y = rng.UniformRange(1, spec.MaxCode());
    Region rx = ToRegion(x);
    bool region_contains =
        x != y && rx.start <= ToRegion(y).start && ToRegion(y).end <= rx.end;
    EXPECT_EQ(region_contains, IsAncestor(x, y)) << "x=" << x << " y=" << y;
  }
}

// ---- Document-order key.

/// Reference document order: Start ascending, height descending.
bool ReferenceDocLess(Code a, Code b) {
  if (StartOf(a) != StartOf(b)) return StartOf(a) < StartOf(b);
  return HeightOf(a) > HeightOf(b);
}

/// Appends the subtree of `c` in pre-order.
void PreOrder(Code c, std::vector<Code>* out) {
  out->push_back(c);
  const int h = HeightOf(c);
  if (h == 0) return;
  PreOrder(c - (Code{1} << (h - 1)), out);
  PreOrder(c + (Code{1} << (h - 1)), out);
}

TEST(DocKeyTest, IsThePreOrderRankExhaustively) {
  for (int height = 1; height <= 12; ++height) {
    PBiTreeSpec spec{height};
    std::vector<Code> pre;
    PreOrder(spec.RootCode(), &pre);
    ASSERT_EQ(pre.size(), spec.MaxCode());
    for (size_t i = 0; i < pre.size(); ++i) {
      ASSERT_EQ(DocKey(pre[i]), i + 128 - height) << "H=" << height;
    }
  }
}

TEST(DocKeyTest, OrdersLikeStartThenHeightExhaustively) {
  for (int height = 1; height <= 12; ++height) {
    std::vector<Code> codes;
    for (Code c = 1; c <= PBiTreeSpec{height}.MaxCode(); ++c) codes.push_back(c);
    std::sort(codes.begin(), codes.end(), ReferenceDocLess);
    for (size_t i = 1; i < codes.size(); ++i) {
      ASSERT_LT(DocKey(codes[i - 1]), DocKey(codes[i]))
          << "H=" << height << " codes " << codes[i - 1] << ", " << codes[i];
      ASSERT_TRUE(DocLess(codes[i - 1], codes[i]));
      ASSERT_FALSE(DocLess(codes[i], codes[i - 1]));
    }
  }
}

TEST(DocKeyTest, OrdersLikeStartThenHeightUpToHeight63) {
  Random rng(2024);
  auto check = [](Code a, Code b) {
    ASSERT_EQ(DocLess(a, b), ReferenceDocLess(a, b)) << a << " vs " << b;
    ASSERT_EQ(DocLess(b, a), ReferenceDocLess(b, a)) << b << " vs " << a;
  };
  for (int i = 0; i < 160000; ++i) {
    const int height = 13 + static_cast<int>(rng.Uniform(kMaxTreeHeight - 12));
    const Code max = PBiTreeSpec{height}.MaxCode();
    Code a = rng.UniformRange(1, max);
    Code b;
    switch (i % 4) {
      case 0:  // anywhere in the tree
        b = rng.UniformRange(1, max);
        break;
      case 1: {  // a chain sharing a's Start: its leftmost descendants
        const int h = HeightOf(a);
        if (h == 0) {
          b = a;
          break;
        }
        const int down = 1 + static_cast<int>(rng.Uniform(h));
        b = StartOf(a) - 1 + (Code{1} << (h - down));
        EXPECT_EQ(StartOf(b), StartOf(a));
        break;
      }
      case 2:  // a nearby code
        b = std::clamp<Code>(a + rng.UniformRange(0, 64) - 32, 1, max);
        break;
      default: {  // around the root of the tallest tree, 2^62
        const Code root = Code{1} << 62;
        a = root - 64 + rng.UniformRange(0, 128);
        b = rng.Uniform(2) ? PBiTreeSpec{kMaxTreeHeight}.MaxCode() - rng.Uniform(64)
                           : root + rng.UniformRange(0, 1 << 20) - (1 << 19);
        break;
      }
    }
    check(a, b);
    if (HasFatalFailure()) return;
  }
  // The extremes of the 63-level space.
  const Code max = PBiTreeSpec{kMaxTreeHeight}.MaxCode();
  for (Code a : {Code{1}, Code{2}, Code{1} << 61, Code{1} << 62,
                 (Code{1} << 62) + 1, max - 1, max}) {
    for (Code b : {Code{1}, Code{3}, (Code{1} << 62) - 1, Code{1} << 62,
                   (Code{3} << 61), max}) {
      check(a, b);
    }
  }
}

}  // namespace
}  // namespace pbitree
