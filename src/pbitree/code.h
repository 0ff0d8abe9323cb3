#ifndef PBITREE_PBITREE_CODE_H_
#define PBITREE_PBITREE_CODE_H_

#include <bit>
#include <cassert>
#include <cstdint>

#include "common/status.h"

namespace pbitree {

/// A PBiTree code: the in-order number of a node in a perfect binary
/// tree of height H (Definition 2 of the paper). Valid codes lie in
/// [1, 2^H - 1]; 0 is reserved as "invalid".
using Code = uint64_t;
inline constexpr Code kInvalidCode = 0;

/// Maximum supported PBiTree height. Codes are 64-bit, so H <= 63.
inline constexpr int kMaxTreeHeight = 63;

/// \brief Parameters of the PBiTree a set of codes was drawn from.
///
/// `height` is H in the paper: leaves have height 0, the root has
/// height H - 1, and levels count down from the root (root level 0,
/// leaves level H - 1).
struct PBiTreeSpec {
  int height = 0;

  /// Total code space [1, 2^H - 1].
  Code MaxCode() const { return (Code{1} << height) - 1; }
  /// Code of the root node, 2^(H-1).
  Code RootCode() const { return Code{1} << (height - 1); }
  /// Level of a node of PBiTree height `h` (Property 2).
  int LevelOfHeight(int h) const { return height - h - 1; }

  friend bool operator==(const PBiTreeSpec&, const PBiTreeSpec&) = default;
};

/// Height of a node from its code: position of the lowest set bit
/// (Property 2). Precondition: code != 0.
inline int HeightOf(Code code) { return std::countr_zero(code); }

/// Level of a node: H - height - 1 (Property 2).
inline int LevelOf(Code code, const PBiTreeSpec& spec) {
  return spec.height - HeightOf(code) - 1;
}

/// The F function (Property 1): code of `code`'s ancestor at height `h`.
/// Pure shifting/addition, exactly as the paper advertises:
/// F(n, h) = ((n >> (h+1)) << (h+1)) + (1 << h).
/// Only meaningful when h >= HeightOf(code); for h == HeightOf(code) it
/// returns `code` itself.
inline Code AncestorAtHeight(Code code, int h) {
  return ((code >> (h + 1)) << (h + 1)) + (Code{1} << h);
}

/// Domain of the G function: level `l` exists in the tree and `alpha`
/// indexes one of its 2^l nodes. Outside this domain G's shift/multiply
/// silently wraps (worst at H == kMaxTreeHeight, where the result space
/// has no slack bits), so callers with untrusted inputs must check
/// first — or use CheckedCodeOfTopDown.
inline bool IsValidTopDown(uint64_t alpha, int level,
                           const PBiTreeSpec& spec) {
  return spec.height >= 1 && spec.height <= kMaxTreeHeight && level >= 0 &&
         level < spec.height && alpha < (uint64_t{1} << level);
}

/// The G function (Lemma 2): PBiTree code of the alpha-th node (0-based,
/// left to right) on level `l`: G(alpha, l) = (1 + 2*alpha) * 2^(H-l-1).
/// Precondition: IsValidTopDown(alpha, level, spec) — in-domain inputs
/// never overflow (the result is < 2^H <= 2^63), out-of-domain ones
/// wrap silently in release builds.
inline Code CodeOfTopDown(uint64_t alpha, int level, const PBiTreeSpec& spec) {
  assert(IsValidTopDown(alpha, level, spec) &&
         "CodeOfTopDown called outside G's domain");
  return (1 + 2 * alpha) << (spec.height - level - 1);
}

/// Checked variant of CodeOfTopDown for untrusted (alpha, level) —
/// parser input, CLI arguments: InvalidArgument instead of a silently
/// wrapped code.
StatusOr<Code> CheckedCodeOfTopDown(uint64_t alpha, int level,
                                    const PBiTreeSpec& spec);

/// Inverse of G: the 0-based left-to-right position of `code` on its
/// level.
inline uint64_t AlphaOf(Code code, const PBiTreeSpec& spec) {
  (void)spec;
  return (code >> HeightOf(code)) >> 1;
}

/// Lemma 1 plus the implicit height guard: true iff the node coded
/// `anc` is a *proper* ancestor of the node coded `desc`.
inline bool IsAncestor(Code anc, Code desc) {
  int ha = HeightOf(anc);
  return ha > HeightOf(desc) && AncestorAtHeight(desc, ha) == anc;
}

/// True iff `anc` is `desc` or a proper ancestor of it.
inline bool IsAncestorOrSelf(Code anc, Code desc) {
  return anc == desc || IsAncestor(anc, desc);
}

/// \brief Region code (Start, End) derived from a PBiTree code
/// (Lemma 3): (n - (2^h - 1), n + (2^h - 1)).
struct Region {
  uint64_t start = 0;
  uint64_t end = 0;

  /// Region containment test used by all region-based algorithms:
  /// for well-nested (tree) data, a contains d iff
  /// a.start < d.start && d.start < a.end.
  bool Contains(const Region& d) const {
    return start < d.start && d.start < end;
  }

  friend bool operator==(const Region&, const Region&) = default;
};

/// Converts a PBiTree code to its region code (Lemma 3). O(1), local
/// information only — this is what lets the non-partitioning algorithms
/// run on PBiTree data "with little overhead".
inline Region ToRegion(Code code) {
  Code span = (Code{1} << HeightOf(code)) - 1;
  return Region{code - span, code + span};
}

/// Start attribute alone (the sort key of STACKTREE / MPMGJN).
inline uint64_t StartOf(Code code) {
  return code - ((Code{1} << HeightOf(code)) - 1);
}

/// End attribute alone.
inline uint64_t EndOf(Code code) {
  return code + ((Code{1} << HeightOf(code)) - 1);
}

/// Document-order key: the node's pre-order rank in its perfect binary
/// tree plus 128 − H, computed from the code alone (Start − 1 is
/// code & (code − 1), Lemma 3). One integer, so a comparison, a radix
/// digit or a heap entry needs no comparator. Exact for every height up
/// to kMaxTreeHeight: code & (code − 1) < 2^63 and ctz + popcount <= 64,
/// so the sum neither wraps nor drops below 64. Precondition: code != 0.
inline uint64_t DocKey(Code code) {
  return (code & (code - 1)) + 128 - static_cast<uint64_t>(std::countr_zero(code)) -
         static_cast<uint64_t>(std::popcount(code));
}

/// Document order: Start ascending, then height descending, so an
/// ancestor sorts before every descendant that shares its Start. This
/// is the order STACKTREE and MPMGJN scan and re-binarization rebuilds.
inline bool DocLess(Code a, Code b) { return DocKey(a) < DocKey(b); }

/// \brief Prefix code derived from a PBiTree code (Lemma 4):
/// the bit string `code >> h` of length H - h bits (kept fixed-length —
/// leading zeros are significant). Its first H - h - 1 bits are the
/// left(0)/right(1) path from the root; the last bit is always 1 and
/// acts as a terminator.
struct PrefixCode {
  uint64_t bits = 0;
  int length = 0;  // number of significant bits

  /// The root path encoded in this prefix (terminator stripped).
  uint64_t path() const { return bits >> 1; }
  int path_length() const { return length - 1; }

  friend bool operator==(const PrefixCode&, const PrefixCode&) = default;
};

/// Converts a PBiTree code to its prefix code (Lemma 4).
inline PrefixCode ToPrefix(Code code, const PBiTreeSpec& spec) {
  int h = HeightOf(code);
  return PrefixCode{code >> h, spec.height - h};
}

/// Ancestor test on prefix codes: `a` is an ancestor of `d` iff a's
/// root path is a strict prefix of d's root path.
inline bool PrefixIsAncestor(const PrefixCode& a, const PrefixCode& d) {
  return a.path_length() < d.path_length() &&
         (d.path() >> (d.path_length() - a.path_length())) == a.path();
}

/// Checks that `code` is a legal code of the given PBiTree. A spec
/// outside [1, kMaxTreeHeight] has no legal codes (without the height
/// guard, MaxCode()'s shift would be undefined for height > 63).
inline bool IsValidCode(Code code, const PBiTreeSpec& spec) {
  return spec.height >= 1 && spec.height <= kMaxTreeHeight && code >= 1 &&
         code <= spec.MaxCode();
}

/// Range of codes in the subtree rooted at `code`: [start, end] of its
/// region — every node of the subtree (itself included) has its code in
/// this closed interval, and vice versa.
struct CodeInterval {
  Code lo = 0;
  Code hi = 0;
};
inline CodeInterval SubtreeInterval(Code code) {
  Region r = ToRegion(code);
  return CodeInterval{r.start, r.end};
}

/// Validates a PBiTreeSpec (1 <= H <= 63).
Status ValidateSpec(const PBiTreeSpec& spec);

}  // namespace pbitree

#endif  // PBITREE_PBITREE_CODE_H_
