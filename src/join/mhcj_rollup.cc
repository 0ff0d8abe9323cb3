#include "join/mhcj_rollup.h"

#include <vector>

#include "join/hash_equijoin.h"
#include "join/mhcj.h"
#include "join/validate.h"
#include "storage/scratch.h"

namespace pbitree {

Status MhcjRollup(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
                  ResultSink* sink, RollupHeightPolicy policy) {
  bool empty = false;
  PBITREE_RETURN_IF_ERROR(
      ValidateJoinInputs("MHCJ+Rollup", a, d, &empty));
  if (empty) return Status::OK();

  if (policy == RollupHeightPolicy::kMax || a.SingleHeight()) {
    // Roll every ancestor up to the highest height present: the whole
    // join collapses to one SHCJ-shaped equijoin. The rolled code
    // F(a.Code, h) is computed on the fly inside the hash join, so no
    // rewritten ancestor file is needed.
    return HashEquijoinAtHeight(ctx, a.file, d.file, a.MaxHeight(), sink);
  }

  // kMedian: split A at the median height. Heights <= h_med roll up to
  // h_med (one equijoin); the rest keep exact per-height SHCJ joins via
  // MHCJ.
  std::vector<int> heights = a.Heights();
  int h_med = heights[heights.size() / 2];

  PBITREE_ASSIGN_OR_RETURN(ScratchFile low_file, ScratchFile::Create(ctx->bm));
  PBITREE_ASSIGN_OR_RETURN(ScratchFile high_file, ScratchFile::Create(ctx->bm));
  ElementSet low, high;
  low.spec = high.spec = a.spec;
  {
    HeapFile::Appender low_app(ctx->bm, low_file.get());
    HeapFile::Appender high_app(ctx->bm, high_file.get());
    HeapFile::Scanner scan(ctx->bm, a.file);
    for (auto recs = scan.NextElementBatch(); !recs.empty();
         recs = scan.NextElementBatch()) {
      for (const ElementRecord& rec : recs) {
        int h = HeightOf(rec.code);
        if (h <= h_med) {
          low.height_mask |= uint64_t{1} << h;
          PBITREE_RETURN_IF_ERROR(low_app.AppendElement(rec));
        } else {
          high.height_mask |= uint64_t{1} << h;
          PBITREE_RETURN_IF_ERROR(high_app.AppendElement(rec));
        }
      }
    }
    PBITREE_RETURN_IF_ERROR(scan.status());
    // A failed tail-page write-back means the split files are not fully
    // durable; report it instead of joining against truncated inputs.
    PBITREE_RETURN_IF_ERROR(low_app.Finish());
    PBITREE_RETURN_IF_ERROR(high_app.Finish());
  }
  low.file = *low_file;
  high.file = *high_file;

  if (low.num_records() > 0) {
    PBITREE_RETURN_IF_ERROR(
        HashEquijoinAtHeight(ctx, low.file, d.file, h_med, sink));
  }
  if (high.num_records() > 0) PBITREE_RETURN_IF_ERROR(Mhcj(ctx, high, d, sink));
  PBITREE_RETURN_IF_ERROR(low_file.Drop());
  return high_file.Drop();
}

}  // namespace pbitree
