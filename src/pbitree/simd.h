#ifndef PBITREE_PBITREE_SIMD_H_
#define PBITREE_PBITREE_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "pbitree/code.h"

namespace pbitree::simd {

/// \brief Batch kernels for the hot containment-join inner loops.
///
/// Every kernel here is bit-exact equivalent to the scalar loop it
/// replaces (the Lemma-1 test of `code.h`), so join output — pairs and
/// their order — is identical whether the AVX2 path or the portable
/// scalar fallback runs. The vector forms avoid the per-lane
/// count-trailing-zeros AVX2 lacks by using the subtree-interval
/// identities
///
///     StartOf(c) == (c & (c - 1)) + 1
///     EndOf(c)   ==  c | (c - 1)
///     IsAncestor(a, d)  <=>  StartOf(a) <= d && d <= EndOf(a) && a != d
///
/// which hold for every valid code (a code's subtree interval contains
/// exactly the codes of its subtree, itself included — see
/// `SubtreeInterval`).
///
/// Strided inputs: kernels that read element records take a
/// `const uint64_t*` base plus a stride in 64-bit words, so the same
/// entry point covers contiguous code arrays (`stride == 1`) and
/// zero-copy `ElementRecord` spans (`stride == 2`, code is the first
/// field of the 16-byte record). Inputs need only 8-byte alignment.

/// True when the AVX2 path was compiled in AND the running CPU supports
/// it. On non-x86 builds (or a compiler without -mavx2) this is false
/// and every kernel runs its scalar body.
bool Avx2Available();

/// Effective toggle: Avx2Available() AND the process-global enable flag.
/// The flag defaults to the PBITREE_SIMD environment variable (unset or
/// non-zero = on, "0" = off) and can be overridden at runtime.
bool Enabled();

/// Overrides the process-global enable flag (visible to all threads —
/// segment tasks on pool workers must observe a per-run override). Returns the previous
/// value. Enabling has no effect when Avx2Available() is false.
bool SetEnabled(bool on);

/// RAII override of the enable flag for one scope — how
/// `RunOptions::simd` is applied around a join without leaking into the
/// next request.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) : prev_(SetEnabled(on)) {}
  ~ScopedEnable() { SetEnabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

/// Writes the codes among `codes[0], codes[stride], ...` (n entries)
/// that are proper descendants of `anc` into `out`, preserving input
/// order. Returns the number written. `out` must have room for n codes.
size_t FilterDescendants(Code anc, const uint64_t* codes, size_t stride,
                         size_t n, Code* out);

/// Bitmask of the entries of `ancs[0..n)` (n <= 64, contiguous) that
/// are proper ancestors of `d`: bit i set iff IsAncestor(ancs[i], d).
/// Sized for the stack-tree stacks, whose depth is bounded by the tree
/// height (nested ancestors have strictly decreasing heights).
uint64_t AncestorMask64(const Code* ancs, size_t n, Code d);

/// Writes the entries of `ancs[0..n)` that are proper ancestors of `d`
/// into `out`, preserving input order. Returns the number written.
/// `out` must have room for n codes. Any n is accepted (chunks of 64).
size_t FilterAncestors(const Code* ancs, size_t n, Code d, Code* out);

/// First index i in [0, n) with StartOf(codes[i*stride]) >= threshold,
/// or n if none. Precondition: the span is sorted by Start (the
/// STACKTREE/MPMGJN input order) — the result is a galloping lower
/// bound, not a linear scan.
size_t LowerBoundStart(const uint64_t* codes, size_t stride, size_t n,
                       uint64_t threshold);

/// out[i] = AncestorAtHeight(codes[i*stride], h) for i in [0, n) — the
/// batched rolled-key computation of the hash equijoins. Callers that
/// skip some records (proximity height filter) still get a key computed
/// for every slot; unused slots are simply never read.
void RolledKeys(const uint64_t* codes, size_t stride, size_t n, int h,
                uint64_t* out);

/// Interleaves (anc, descs[i]) pairs into `out_pairs`:
/// out_pairs[2i] = anc, out_pairs[2i+1] = descs[i]. `out_pairs` must
/// have room for 2n words — the PairBuffer emit path writes straight
/// into its ResultPair staging array.
void PackPairsFixedAncestor(Code anc, const Code* descs, size_t n,
                            uint64_t* out_pairs);

/// Interleaves (ancs[i], desc) pairs: out_pairs[2i] = ancs[i],
/// out_pairs[2i+1] = desc.
void PackPairsFixedDescendant(const Code* ancs, size_t n, Code desc,
                              uint64_t* out_pairs);

}  // namespace pbitree::simd

#endif  // PBITREE_PBITREE_SIMD_H_
