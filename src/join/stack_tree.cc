#include "join/stack_tree.h"

#include <span>
#include <vector>

#include "join/validate.h"
#include "obs/metrics.h"
#include "pbitree/simd.h"
#include "sort/external_sort.h"

namespace pbitree {

Status StackTreeJoin(JoinContext* ctx, const ElementSet& a,
                     const ElementSet& d, ResultSink* sink) {
  bool empty = false;
  PBITREE_RETURN_IF_ERROR(
      ValidateJoinInputs("StackTree", a, d, /*require_sorted=*/true, &empty));
  if (empty) return Status::OK();

  HeapFile::BatchCursor a_cur(ctx->bm, a.file);
  HeapFile::BatchCursor d_cur(ctx->bm, d.file);
  PBITREE_RETURN_IF_ERROR(a_cur.status());
  PBITREE_RETURN_IF_ERROR(d_cur.status());
  PairBuffer out(sink, &ctx->stats.output_pairs);

  // The stack holds the chain of currently open ancestors (each entry
  // nested in the one below). Its depth is bounded by the PBiTree
  // height, so it always fits in memory — the key property of the
  // stack-tree algorithms.
  obs::ObsSpan merge_span(obs::Phase::kMerge);
  std::vector<Code> stack;
  std::vector<Code> scratch;  // surviving stack entries per descendant

  while (d_cur.live() && (a_cur.live() || !stack.empty())) {
    if (a_cur.live() && ElementLess(a_cur.rec(), d_cur.rec(), SortOrder::kStartOrder)) {
      // Next event is an ancestor-set element: close finished
      // ancestors, open this one.
      const Code a_code = a_cur.rec().code;
      while (!stack.empty() && EndOf(stack.back()) < StartOf(a_code)) {
        stack.pop_back();
      }
      stack.push_back(a_code);
      a_cur.Advance();
      if (!a_cur.live()) PBITREE_RETURN_IF_ERROR(a_cur.status());
    } else {
      // Next event is a descendant-set element: close finished
      // ancestors, then every remaining stack entry contains it.
      const Code d_code = d_cur.rec().code;
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
      d_cur.Advance();
      if (!d_cur.live()) PBITREE_RETURN_IF_ERROR(d_cur.status());
    }
  }
  return out.Flush();
}

}  // namespace pbitree
