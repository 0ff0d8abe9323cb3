#ifndef PBITREE_JOIN_MPMGJN_H_
#define PBITREE_JOIN_MPMGJN_H_

#include "common/status.h"
#include "join/join_context.h"
#include "join/result_sink.h"
#include "sort/external_sort.h"

namespace pbitree {

/// \brief Multi-Predicate Merge Join (Zhang et al., SIGMOD'01) — the
/// pre-stack-tree sort-merge baseline, adapted to PBiTree codes.
///
/// Both inputs must be in document order and from the same PBiTree: A
/// as a sorted stream, D as a sorted file, because for every ancestor a
/// the descendant cursor rescans the segment of D whose Starts fall
/// inside a's region; deep nesting therefore re-reads D segments repeatedly
/// (the weakness the stack-tree algorithms fix). Kept as an extra
/// baseline for the ablation benchmarks.
Status Mpmgjn(JoinContext* ctx, SortedStream* a, const HeapFile& d,
              ResultSink* sink);

}  // namespace pbitree

#endif  // PBITREE_JOIN_MPMGJN_H_
