#include "join/mhcj.h"

#include <memory>
#include <vector>

#include "join/hash_equijoin.h"
#include "join/validate.h"
#include "obs/metrics.h"
#include "storage/scratch.h"

namespace pbitree {

Status Mhcj(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
            ResultSink* sink) {
  bool empty = false;
  PBITREE_RETURN_IF_ERROR(
      ValidateJoinInputs("MHCJ", a, d, &empty));
  if (empty) return Status::OK();
  if (a.SingleHeight()) {
    // Route to SHCJ directly (line 1-3 of Algorithm 3) — no
    // partitioning pass needed.
    return HashEquijoinAtHeight(ctx, a.file, d.file, a.MinHeight(), sink);
  }

  const std::vector<int> heights = a.Heights();
  ctx->stats.partitions += heights.size();

  // Height partitioning may need more simultaneous output buffers than
  // the budget allows; partition in batches of (work_pages - 2) heights,
  // re-scanning A once per batch (the paper assumes k << b, where one
  // scan suffices).
  const size_t batch = std::max<size_t>(ctx->work_pages - 2, 1);
  for (size_t base = 0; base < heights.size(); base += batch) {
    const size_t end = std::min(heights.size(), base + batch);
    // height -> slot in this batch
    int slot_of[64];
    for (int i = 0; i < 64; ++i) slot_of[i] = -1;
    for (size_t i = base; i < end; ++i) slot_of[heights[i]] = static_cast<int>(i - base);

    std::vector<ScratchFile> parts(end - base);
    {
      obs::ObsSpan partition_span(obs::Phase::kPartition);
      std::vector<std::unique_ptr<HeapFile::Appender>> apps(end - base);
      HeapFile::Scanner scan(ctx->bm, a.file);
      for (auto recs = scan.NextElementBatch(); !recs.empty();
           recs = scan.NextElementBatch()) {
        for (const ElementRecord& rec : recs) {
          int slot = slot_of[HeightOf(rec.code)];
          if (slot < 0) continue;  // height handled by another batch
          if (apps[slot] == nullptr) {
            PBITREE_ASSIGN_OR_RETURN(parts[slot], ScratchFile::Create(ctx->bm));
            apps[slot] =
                std::make_unique<HeapFile::Appender>(ctx->bm, parts[slot].get());
          }
          PBITREE_RETURN_IF_ERROR(apps[slot]->AppendElement(rec));
        }
      }
      PBITREE_RETURN_IF_ERROR(scan.status());
      // Surface a failed tail-page unpin now, not in a destructor.
      for (auto& app : apps) {
        if (app != nullptr) PBITREE_RETURN_IF_ERROR(app->Finish());
      }
    }
    for (size_t i = base; i < end; ++i) {
      ScratchFile& part = parts[i - base];
      if (!part->valid()) continue;
      PBITREE_RETURN_IF_ERROR(
          HashEquijoinAtHeight(ctx, *part, d.file, heights[i], sink));
      PBITREE_RETURN_IF_ERROR(part.Drop());
    }
  }
  return Status::OK();
}

}  // namespace pbitree
