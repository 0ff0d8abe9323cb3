#ifndef PBITREE_JOIN_VPJ_H_
#define PBITREE_JOIN_VPJ_H_

#include "common/status.h"
#include "join/element_set.h"
#include "join/join_context.h"
#include "join/result_sink.h"

namespace pbitree {

/// \brief Tuning knobs of the vertical-partitioning join. The defaults
/// follow the paper; the flags exist for the ablation benchmarks.
struct VpjOptions {
  bool enable_purging = true;  // drop partitions with one side empty
  bool enable_merging = true;  // coalesce adjacent small partitions
};

/// \brief Vertical-Partitioning Join (Algorithms 5 and 6 of the paper).
///
/// Divide and conquer over the *code space*: the PBiTree is cut at
/// level l (k = 2^l subtrees), chosen so that partitions of the smaller
/// input are likely to fit in the `work_pages` budget. Every element is
/// routed to the partitions of the level-l nodes it is an ancestor or
/// descendant of:
///  - descendants go to exactly one partition;
///  - ancestors above the cut are *replicated* to every partition their
///    subtree covers (A side; at most l extra nodes per partition).
/// A descendant-set element above the cut is routed to one designated
/// partition (its leftmost level-l descendant), which the replication
/// of its ancestors is guaranteed to cover — so every result pair is
/// produced exactly once and the union needs no duplicate elimination.
///
/// Per partition pair: purge if one side is empty; merge adjacent small
/// replication-free partitions; recurse if both sides still exceed the
/// budget; otherwise run Memory-Containment-Join (sorted in-memory
/// probe when D fits, MHCJ+Rollup when only A does). Without recursion
/// the I/O cost is 3(||A|| + ||D||).
Status Vpj(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
           ResultSink* sink, const VpjOptions& options = {});

}  // namespace pbitree

#endif  // PBITREE_JOIN_VPJ_H_
