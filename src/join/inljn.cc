#include "join/inljn.h"

#include "join/validate.h"
#include "obs/metrics.h"

namespace pbitree {

namespace {

/// Outer = A: for each ancestor, range-scan D's code index over a's
/// subtree interval.
Status ProbeDescendants(JoinContext* ctx, const ElementSet& a,
                        const BPTree& d_index, ResultSink* sink) {
  HeapFile::BatchCursor cur(ctx->bm, a.file);
  PairBuffer out(sink, &ctx->stats.output_pairs);
  for (; cur.live(); cur.Advance()) {
    const Code a_code = cur.rec().code;
    CodeInterval iv = SubtreeInterval(a_code);
    ++ctx->stats.index_probes;
    BPTree::RangeScanner range(ctx->bm, d_index, iv.lo, iv.hi);
    ElementRecord d_rec;
    Status rst;
    while (range.Next(&d_rec, &rst)) {
      if (d_rec.code == a_code) continue;  // the element itself
      PBITREE_RETURN_IF_ERROR(out.Emit(a_code, d_rec.code));
    }
    PBITREE_RETURN_IF_ERROR(rst);
  }
  PBITREE_RETURN_IF_ERROR(cur.status());
  return out.Flush();
}

/// Outer = D: for each descendant, stab A's interval index at its code.
Status ProbeAncestors(JoinContext* ctx, const ElementSet& d,
                      const IntervalIndex& a_index, ResultSink* sink) {
  HeapFile::BatchCursor cur(ctx->bm, d.file);
  PairBuffer out(sink, &ctx->stats.output_pairs);
  for (; cur.live(); cur.Advance()) {
    const Code d_code = cur.rec().code;
    ++ctx->stats.index_probes;
    Status emit_status;
    Status stab = a_index.Stab(
        ctx->bm, d_code, [&](const ElementRecord& a_rec) {
          // Stab returns every region containing d's code; the Lemma-1
          // check drops the self match (code == code).
          if (IsAncestor(a_rec.code, d_code)) {
            Status s = out.Emit(a_rec.code, d_code);
            if (!s.ok() && emit_status.ok()) emit_status = s;
          }
        });
    PBITREE_RETURN_IF_ERROR(stab);
    PBITREE_RETURN_IF_ERROR(emit_status);
  }
  PBITREE_RETURN_IF_ERROR(cur.status());
  return out.Flush();
}

}  // namespace

Status Inljn(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
             const InljnIndexes& indexes, ResultSink* sink) {
  bool empty = false;
  PBITREE_RETURN_IF_ERROR(
      ValidateJoinInputs("INLJN", a, d, &empty));
  if (empty) return Status::OK();
  const bool can_probe_d = indexes.d_code_index != nullptr;
  const bool can_probe_a = indexes.a_interval_index != nullptr;
  if (!can_probe_d && !can_probe_a) {
    return Status::InvalidArgument(
        "INLJN needs an index on at least one input");
  }
  bool outer_a;
  if (can_probe_d && can_probe_a) {
    outer_a = a.num_records() <= d.num_records();  // the paper's heuristic
  } else {
    outer_a = can_probe_d;
  }
  obs::ObsSpan probe_span(obs::Phase::kProbe);
  return outer_a ? ProbeDescendants(ctx, a, *indexes.d_code_index, sink)
                 : ProbeAncestors(ctx, d, *indexes.a_interval_index, sink);
}

}  // namespace pbitree
