#ifndef PBITREE_JOIN_ALGORITHM_REGISTRY_H_
#define PBITREE_JOIN_ALGORITHM_REGISTRY_H_

#include <span>
#include <string>
#include <string_view>

#include "common/status.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/join_context.h"
#include "join/result_sink.h"

namespace pbitree {

/// \brief One entry per containment-join algorithm: the single source of
/// truth for the enum <-> name mapping, the dispatch function, and the
/// capability flags the planner and the CLIs used to duplicate.
///
/// Every consumer of "which algorithms exist" goes through this table —
/// the planner's name parsing, the serve daemon's request decoding, the
/// CLI's --alg flag and the bench harnesses. Adding an algorithm means
/// adding one row here; the error messages, help strings and dispatch
/// all pick it up.

/// Dispatch signature. The runner materialises any prerequisite the
/// inputs are missing (sorted copy, index) on the fly, charging the
/// build to ctx->stats — the paper's "naive mode" protocol.
using AlgorithmRunner = Status (*)(JoinContext* ctx, const ElementSet& a,
                                   const ElementSet& d, ResultSink* sink,
                                   const RunOptions& options);

struct AlgorithmInfo {
  Algorithm alg;
  /// Canonical name — the wire protocol of the serve layer and the CLI
  /// --alg vocabulary. Lookups by name ignore case.
  const char* name;
  AlgorithmRunner run;
  /// Needs Start-sorted inputs; unsorted ones are copied and sorted on
  /// the fly (charged to sort_seconds).
  bool requires_sorted;
  /// Needs an index; missing ones are built on the fly (charged to
  /// index_build_seconds).
  bool requires_index;
};

/// The full table, in enum order.
std::span<const AlgorithmInfo> AllAlgorithms();

/// Table row for `alg`.
const AlgorithmInfo& GetAlgorithmInfo(Algorithm alg);

/// Row whose canonical name equals `name`, or nullptr.
const AlgorithmInfo* FindAlgorithmByName(std::string_view name);

/// Like FindAlgorithmByName but with the error message every caller
/// wants: "unknown algorithm '<name>' (want SHCJ|MHCJ|...)".
StatusOr<Algorithm> AlgorithmFromName(std::string_view name);

/// "SHCJ|MHCJ|MHCJ+Rollup|..." — for --help text and error messages.
const std::string& AlgorithmNameList();

}  // namespace pbitree

#endif  // PBITREE_JOIN_ALGORITHM_REGISTRY_H_
