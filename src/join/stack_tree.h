#ifndef PBITREE_JOIN_STACK_TREE_H_
#define PBITREE_JOIN_STACK_TREE_H_

#include "common/status.h"
#include "join/join_context.h"
#include "join/result_sink.h"
#include "sort/external_sort.h"

namespace pbitree {

/// \brief Stack-Tree join (Al-Khalifa et al., ICDE'02), adapted to
/// PBiTree-coded data per Section 3.1 of the paper.
///
/// Reads both inputs in document order — (Start asc, height desc),
/// compared as one DocKey per record (pbitree/code.h) — from sorted
/// streams: a scan of a set stored in that order, or ExternalSort's
/// output, whose final merge runs as the join reads it. A stack of
/// nested ancestors replaces MPMGJN's rescans, so each input is read
/// exactly once, the optimal O(||A|| + ||D||) I/O. This is the
/// stack-tree-desc variant (output in descendant order, unsorted
/// appends here). Both inputs must come from the same PBiTree; the
/// registry's wrapper checks that and sorts unsorted inputs on the fly,
/// charging the sort (the MIN_RGN configuration of the experiments).
Status StackTreeJoin(JoinContext* ctx, SortedStream* a, SortedStream* d,
                     ResultSink* sink);

}  // namespace pbitree

#endif  // PBITREE_JOIN_STACK_TREE_H_
