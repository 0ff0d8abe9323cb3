#include "join/stack_tree.h"

#include <span>
#include <vector>

#include "obs/metrics.h"
#include "pbitree/simd.h"
#include "sort/external_sort.h"

namespace pbitree {

Status StackTreeJoin(JoinContext* ctx, SortedStream* a, SortedStream* d,
                     ResultSink* sink) {
  PairBuffer out(sink, &ctx->stats.output_pairs);

  // The stack holds the chain of currently open ancestors (each entry
  // nested in the one below). Its depth is bounded by the PBiTree
  // height, so it always fits in memory — the key property of the
  // stack-tree algorithms.
  obs::ObsSpan merge_span(obs::Phase::kMerge);
  std::vector<Code> stack;
  std::vector<Code> scratch;  // surviving stack entries per descendant

  // Document order is one integer per record: DocKey of the heads.
  uint64_t a_key = a->live() ? DocKey(a->rec().code) : 0;
  uint64_t d_key = d->live() ? DocKey(d->rec().code) : 0;
  while (d->live() && (a->live() || !stack.empty())) {
    if (a->live() && a_key < d_key) {
      // Next event is an ancestor-set element: close finished
      // ancestors, open this one.
      const Code a_code = a->rec().code;
      while (!stack.empty() && EndOf(stack.back()) < StartOf(a_code)) {
        stack.pop_back();
      }
      stack.push_back(a_code);
      a->Advance();
      if (a->live()) a_key = DocKey(a->rec().code);
    } else {
      // Next event is a descendant-set element: close finished
      // ancestors, then every remaining stack entry contains it.
      const Code d_code = d->rec().code;
      while (!stack.empty() && EndOf(stack.back()) < StartOf(d_code)) {
        stack.pop_back();
      }
      // The Lemma-1 test filters the self pair (the same element in
      // both sets); all other stack entries are genuine ancestors. The
      // batch kernel applies the exact predicate in stack order, so the
      // emitted sequence equals the scalar loop's.
      scratch.resize(stack.size());
      const size_t m = simd::FilterAncestors(stack.data(), stack.size(),
                                             d_code, scratch.data());
      PBITREE_RETURN_IF_ERROR(
          out.EmitAncestors(std::span<const Code>(scratch.data(), m), d_code));
      d->Advance();
      if (d->live()) d_key = DocKey(d->rec().code);
    }
  }
  // A stream that ended early on an I/O error ends the loop too.
  PBITREE_RETURN_IF_ERROR(a->status());
  PBITREE_RETURN_IF_ERROR(d->status());
  return out.Flush();
}

}  // namespace pbitree
