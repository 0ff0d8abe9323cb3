#include "join/segmented_set.h"

namespace pbitree {

StatusOr<ElementSet> FilterSegmentReplicas(BufferManager* bm,
                                           const ElementSet& piece,
                                           uint64_t k, int h_cut) {
  PBITREE_ASSIGN_OR_RETURN(ElementSetBuilder builder,
                           ElementSetBuilder::Create(bm, piece.spec));
  if (piece.file.valid()) {
    HeapFile::Scanner scan(bm, piece.file);
    for (std::span<const ElementRecord> batch = scan.NextElementBatch();
         !batch.empty(); batch = scan.NextElementBatch()) {
      for (const ElementRecord& rec : batch) {
        if (HeightOf(rec.code) > h_cut &&
            DesignatedSegment(rec.code, h_cut) != k) {
          continue;  // foreign-designated ancestor replica
        }
        PBITREE_RETURN_IF_ERROR(builder.Add(rec));
      }
    }
    PBITREE_RETURN_IF_ERROR(scan.status());
  }
  PBITREE_ASSIGN_OR_RETURN(ElementSet out, builder.Build());
  // Replica removal preserves the piece's relative record order, so
  // sortedness carries over.
  out.sorted_by_start = piece.sorted_by_start;
  return out;
}

}  // namespace pbitree
