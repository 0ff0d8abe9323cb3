#ifndef PBITREE_JOIN_STACK_TREE_H_
#define PBITREE_JOIN_STACK_TREE_H_

#include "common/status.h"
#include "join/element_set.h"
#include "join/join_context.h"
#include "join/result_sink.h"

namespace pbitree {

/// \brief Stack-Tree join (Al-Khalifa et al., ICDE'02), adapted to
/// PBiTree-coded data per Section 3.1 of the paper.
///
/// Requires both inputs in document order — (Start asc, height desc),
/// where Start is derived from the code on the fly (Lemma 3). A stack
/// of nested ancestors replaces MPMGJN's rescans; each input is read
/// exactly once, the optimal O(||A|| + ||D||) I/O. This is the
/// stack-tree-desc variant (output in descendant order, unsorted
/// appends here).
///
/// If an input is not sorted, the algorithm fails with InvalidArgument;
/// the framework's naive wrapper sorts on the fly first and charges the
/// sort (that is the MIN_RGN configuration of the experiments).
Status StackTreeJoin(JoinContext* ctx, const ElementSet& a,
                     const ElementSet& d, ResultSink* sink);

}  // namespace pbitree

#endif  // PBITREE_JOIN_STACK_TREE_H_
