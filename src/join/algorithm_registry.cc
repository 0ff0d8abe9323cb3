#include "join/algorithm_registry.h"

#include <cctype>
#include <optional>

#include "common/timer.h"
#include "index/bptree.h"
#include "index/interval_index.h"
#include "join/adb.h"
#include "join/inljn.h"
#include "join/mhcj.h"
#include "join/mhcj_rollup.h"
#include "join/mpmgjn.h"
#include "join/shcj.h"
#include "join/stack_tree.h"
#include "join/vpj.h"
#include "sort/external_sort.h"

namespace pbitree {

namespace {

/// Sorted-by-Start copy of a set; the temp file must be dropped by the
/// caller. Sort time is charged to stats->sort_seconds.
StatusOr<ElementSet> SortedCopy(BufferManager* bm, const ElementSet& in,
                              size_t work_pages, JoinStats* stats) {
  Timer t;
  PBITREE_ASSIGN_OR_RETURN(
      HeapFile sorted,
      ExternalSort(bm, in.file, work_pages, SortOrder::kStartOrder));
  stats->sort_seconds += t.ElapsedSeconds();
  ElementSet out = in;
  out.file = sorted;
  out.sorted_by_start = true;
  return out;
}

/// Builds a B+-tree over `in` keyed by `kind`, sorting a temporary copy
/// first (bulk load needs key order). Charged to index_build_seconds.
StatusOr<BPTree> BuildIndexOnTheFly(BufferManager* bm, const ElementSet& in,
                                  KeyKind kind, size_t work_pages,
                                  JoinStats* stats) {
  Timer t;
  SortOrder order =
      kind == KeyKind::kCode ? SortOrder::kCodeOrder : SortOrder::kStartOrder;
  PBITREE_ASSIGN_OR_RETURN(HeapFile sorted,
                           ExternalSort(bm, in.file, work_pages, order));
  auto built = BPTree::BulkLoad(bm, sorted, kind);
  Status drop = sorted.Drop(bm);
  stats->index_build_seconds += t.ElapsedSeconds();
  if (!built.ok()) return built.status();
  PBITREE_RETURN_IF_ERROR(drop);
  return built;
}

StatusOr<IntervalIndex> BuildIntervalIndexOnTheFly(BufferManager* bm,
                                                 const ElementSet& in,
                                                 size_t work_pages,
                                                 JoinStats* stats) {
  Timer t;
  PBITREE_ASSIGN_OR_RETURN(
      HeapFile sorted,
      ExternalSort(bm, in.file, work_pages, SortOrder::kStartOrder));
  auto built = IntervalIndex::BulkLoad(bm, sorted);
  Status drop = sorted.Drop(bm);
  stats->index_build_seconds += t.ElapsedSeconds();
  if (!built.ok()) return built.status();
  PBITREE_RETURN_IF_ERROR(drop);
  return built;
}

Status RunShcj(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
               ResultSink* sink, const RunOptions& options) {
  (void)options;
  return Shcj(ctx, a, d, sink);
}

Status RunMhcj(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
               ResultSink* sink, const RunOptions& options) {
  (void)options;
  return Mhcj(ctx, a, d, sink);
}

Status RunMhcjRollup(JoinContext* ctx, const ElementSet& a,
                     const ElementSet& d, ResultSink* sink,
                     const RunOptions& options) {
  return MhcjRollup(ctx, a, d, sink, options.rollup_policy);
}

Status RunVpj(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
              ResultSink* sink, const RunOptions& options) {
  return Vpj(ctx, a, d, sink, options.vpj);
}

/// Shared body of the two sorted-input merge algorithms: sorts whichever
/// input isn't already Start-sorted, runs, drops the temp copies.
Status RunSortedMerge(Algorithm alg, JoinContext* ctx, const ElementSet& a,
                      const ElementSet& d, ResultSink* sink) {
  BufferManager* bm = ctx->bm;
  ElementSet sa = a, sd = d;
  std::optional<ElementSet> tmp_a, tmp_d;
  if (!sa.sorted_by_start) {
    PBITREE_ASSIGN_OR_RETURN(
        sa, SortedCopy(bm, a, ctx->work_pages, &ctx->stats));
    tmp_a = sa;
  }
  Status st = Status::OK();
  if (!sd.sorted_by_start) {
    // A failed sort of D falls through, so A's copy is still dropped.
    StatusOr<ElementSet> sorted =
        SortedCopy(bm, d, ctx->work_pages, &ctx->stats);
    if (sorted.ok()) {
      sd = *sorted;
      tmp_d = sd;
    } else {
      st = sorted.status();
    }
  }
  if (st.ok()) {
    st = alg == Algorithm::kStackTree ? StackTreeJoin(ctx, sa, sd, sink)
                                      : Mpmgjn(ctx, sa, sd, sink);
  }
  if (tmp_a.has_value()) {
    Status s = tmp_a->file.Drop(bm);
    if (st.ok()) st = s;
  }
  if (tmp_d.has_value()) {
    Status s = tmp_d->file.Drop(bm);
    if (st.ok()) st = s;
  }
  return st;
}

Status RunStackTree(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
                    ResultSink* sink, const RunOptions& options) {
  (void)options;
  return RunSortedMerge(Algorithm::kStackTree, ctx, a, d, sink);
}

Status RunMpmgjn(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
                 ResultSink* sink, const RunOptions& options) {
  (void)options;
  return RunSortedMerge(Algorithm::kMpmgjn, ctx, a, d, sink);
}

Status RunInljn(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
                ResultSink* sink, const RunOptions& options) {
  (void)options;
  BufferManager* bm = ctx->bm;
  InljnIndexes idx;
  // The inputs are never indexed (as in the paper's experiments), so
  // build the index on the side the paper's heuristic makes the inner
  // one (the larger set's index is probed, so the smaller set stays the
  // outer scan), use it, and drop it.
  if (a.num_records() <= d.num_records()) {
    PBITREE_ASSIGN_OR_RETURN(
        BPTree d_index,
        BuildIndexOnTheFly(bm, d, KeyKind::kCode, ctx->work_pages,
                           &ctx->stats));
    idx.d_code_index = &d_index;
    Status st = Inljn(ctx, a, d, idx, sink);
    Status drop = d_index.Drop(bm);
    PBITREE_RETURN_IF_ERROR(st);
    return drop;
  }
  PBITREE_ASSIGN_OR_RETURN(
      IntervalIndex a_index,
      BuildIntervalIndexOnTheFly(bm, a, ctx->work_pages, &ctx->stats));
  idx.a_interval_index = &a_index;
  Status st = Inljn(ctx, a, d, idx, sink);
  Status drop = a_index.Drop(bm);
  PBITREE_RETURN_IF_ERROR(st);
  return drop;
}

Status RunAdb(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
              ResultSink* sink, const RunOptions& options) {
  (void)options;
  BufferManager* bm = ctx->bm;
  PBITREE_ASSIGN_OR_RETURN(
      BPTree a_idx,
      BuildIndexOnTheFly(bm, a, KeyKind::kStart, ctx->work_pages,
                         &ctx->stats));
  StatusOr<BPTree> d_idx = BuildIndexOnTheFly(
      bm, d, KeyKind::kStart, ctx->work_pages, &ctx->stats);
  Status st = d_idx.ok() ? AdbJoin(ctx, a, d, a_idx, *d_idx, sink)
                         : d_idx.status();
  Status drop = a_idx.Drop(bm);
  if (st.ok()) st = drop;
  if (d_idx.ok()) {
    drop = d_idx->Drop(bm);
    if (st.ok()) st = drop;
  }
  return st;
}

// The table. Enum order, so GetAlgorithmInfo can index directly (the
// static_asserts below pin that invariant).
constexpr AlgorithmInfo kRegistry[] = {
    {Algorithm::kShcj, "SHCJ", RunShcj,
     /*requires_sorted=*/false, /*requires_index=*/false},
    {Algorithm::kMhcj, "MHCJ", RunMhcj,
     /*requires_sorted=*/false, /*requires_index=*/false},
    {Algorithm::kMhcjRollup, "MHCJ+Rollup", RunMhcjRollup,
     /*requires_sorted=*/false, /*requires_index=*/false},
    {Algorithm::kVpj, "VPJ", RunVpj,
     /*requires_sorted=*/false, /*requires_index=*/false},
    {Algorithm::kInljn, "INLJN", RunInljn,
     /*requires_sorted=*/false, /*requires_index=*/true},
    {Algorithm::kStackTree, "STACKTREE", RunStackTree,
     /*requires_sorted=*/true, /*requires_index=*/false},
    {Algorithm::kMpmgjn, "MPMGJN", RunMpmgjn,
     /*requires_sorted=*/true, /*requires_index=*/false},
    {Algorithm::kAdb, "ADB+", RunAdb,
     /*requires_sorted=*/false, /*requires_index=*/true},
};

constexpr size_t kNumAlgorithms = sizeof(kRegistry) / sizeof(kRegistry[0]);
static_assert(kNumAlgorithms == 8, "update kRegistry for new algorithms");
static_assert(kRegistry[static_cast<size_t>(Algorithm::kShcj)].alg ==
              Algorithm::kShcj);
static_assert(kRegistry[static_cast<size_t>(Algorithm::kMhcj)].alg ==
              Algorithm::kMhcj);
static_assert(kRegistry[static_cast<size_t>(Algorithm::kMhcjRollup)].alg ==
              Algorithm::kMhcjRollup);
static_assert(kRegistry[static_cast<size_t>(Algorithm::kVpj)].alg ==
              Algorithm::kVpj);
static_assert(kRegistry[static_cast<size_t>(Algorithm::kInljn)].alg ==
              Algorithm::kInljn);
static_assert(kRegistry[static_cast<size_t>(Algorithm::kStackTree)].alg ==
              Algorithm::kStackTree);
static_assert(kRegistry[static_cast<size_t>(Algorithm::kMpmgjn)].alg ==
              Algorithm::kMpmgjn);
static_assert(kRegistry[static_cast<size_t>(Algorithm::kAdb)].alg ==
              Algorithm::kAdb);

}  // namespace

std::span<const AlgorithmInfo> AllAlgorithms() {
  return std::span<const AlgorithmInfo>(kRegistry, kNumAlgorithms);
}

const AlgorithmInfo& GetAlgorithmInfo(Algorithm alg) {
  return kRegistry[static_cast<size_t>(alg)];
}

const AlgorithmInfo* FindAlgorithmByName(std::string_view name) {
  auto eq_fold = [](std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(a[i])) !=
          std::tolower(static_cast<unsigned char>(b[i]))) {
        return false;
      }
    }
    return true;
  };
  for (const AlgorithmInfo& info : kRegistry) {
    if (eq_fold(name, info.name)) return &info;
  }
  return nullptr;
}

const std::string& AlgorithmNameList() {
  static const std::string list = [] {
    std::string out;
    for (const AlgorithmInfo& info : kRegistry) {
      if (!out.empty()) out += '|';
      out += info.name;
    }
    return out;
  }();
  return list;
}

StatusOr<Algorithm> AlgorithmFromName(std::string_view name) {
  const AlgorithmInfo* info = FindAlgorithmByName(name);
  if (info == nullptr) {
    return Status::InvalidArgument("unknown algorithm '" + std::string(name) +
                                   "' (want " + AlgorithmNameList() + ")");
  }
  return info->alg;
}

}  // namespace pbitree
