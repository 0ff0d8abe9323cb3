#ifndef PBITREE_JOIN_HASH_EQUIJOIN_H_
#define PBITREE_JOIN_HASH_EQUIJOIN_H_

#include <vector>

#include "common/status.h"
#include "join/join_context.h"
#include "join/result_sink.h"
#include "pbitree/code.h"
#include "storage/heap_file.h"

namespace pbitree {

/// \brief The equijoin engine behind the horizontal-partitioning
/// algorithms (Section 3.2 of the paper).
///
/// Evaluates the containment join A <| D as the equijoin
///     F(A.Code, h) = F(D.Code, h)
/// for a target height `h` >= the height of every element in A, using a
/// Grace hash join: if the smaller side fits in the `work_pages` memory
/// budget, a single in-memory build/probe pass runs (I/O = ||A|| +
/// ||D||); otherwise both inputs are hash-partitioned on the rolled key
/// into k = ceil(min(||A||,||D||)/(work_pages-1)) partitions and each
/// partition pair is joined recursively (I/O = 3(||A|| + ||D||), the
/// figure the paper quotes for SHCJ/MHCJ+Rollup).
///
/// Every key match is verified with the exact Lemma-1 predicate; matches
/// that fail it are counted in stats.false_hits (Table 2(f)). For SHCJ
/// (every a at exactly height h) the only possible false hits are
/// self-matches and inverted pairs from descendants of A elements
/// sitting above height h in D.
Status HashEquijoinAtHeight(JoinContext* ctx, const HeapFile& a_file,
                            const HeapFile& d_file, int target_height,
                            ResultSink* sink);

/// Loads every record of `file` into memory (helper shared by the
/// in-memory join paths; callers must have checked the budget).
StatusOr<std::vector<ElementRecord>> LoadAllRecords(BufferManager* bm,
                                                    const HeapFile& file);

}  // namespace pbitree

#endif  // PBITREE_JOIN_HASH_EQUIJOIN_H_
