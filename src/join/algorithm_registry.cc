#include "join/algorithm_registry.h"

#include <cctype>
#include <initializer_list>
#include <vector>

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
#include "join/validate.h"
#include "join/vpj.h"
#include "sort/external_sort.h"
#include "storage/scratch.h"

namespace pbitree {

namespace {

/// Builds an index over `in` on the fly: sorts `in` by `order` (bulk
/// load needs key order) straight into the index's bulk load `load`.
/// Charged to stats->index_build_seconds.
template <typename Index, typename Load>
StatusOr<Scratch<Index>> BuildIndexOnTheFly(BufferManager* bm,
                                            const ElementSet& in,
                                            SortOrder order, size_t work_pages,
                                            JoinStats* stats, Load load) {
  Timer t;
  PBITREE_ASSIGN_OR_RETURN(SortedStream sorted,
                           ExternalSort(bm, in.file, work_pages, order));
  PBITREE_ASSIGN_OR_RETURN(Scratch<Index> index,
                           Scratch<Index>::Adopt(bm, load(&sorted)));
  PBITREE_RETURN_IF_ERROR(sorted.Close());
  stats->index_build_seconds += t.ElapsedSeconds();
  return index;
}

StatusOr<Scratch<BPTree>> BuildBPTreeOnTheFly(BufferManager* bm,
                                              const ElementSet& in,
                                              KeyKind kind, size_t work_pages,
                                              JoinStats* stats) {
  SortOrder order =
      kind == KeyKind::kCode ? SortOrder::kCodeOrder : SortOrder::kStartOrder;
  return BuildIndexOnTheFly<BPTree>(
      bm, in, order, work_pages, stats,
      [&](SortedStream* sorted) { return BPTree::BulkLoad(bm, sorted, kind); });
}

/// Document-order streams over `sets`, for a join that reads them side
/// by side: a scan of each set stored in that order, and one
/// ExternalSort within the join's budget for the rest, charged to
/// stats.sort_seconds.
StatusOr<std::vector<SortedStream>> DocOrderStreams(
    JoinContext* ctx, std::initializer_list<const ElementSet*> sets) {
  std::vector<const HeapFile*> unsorted;
  for (const ElementSet* set : sets) {
    if (!set->sorted_by_start) unsorted.push_back(&set->file);
  }
  std::vector<SortedStream> sorted;
  if (!unsorted.empty()) {
    Timer t;
    PBITREE_ASSIGN_OR_RETURN(sorted, ExternalSort(ctx->bm, unsorted,
                                                  ctx->work_pages,
                                                  SortOrder::kStartOrder));
    ctx->stats.sort_seconds += t.ElapsedSeconds();
  }
  std::vector<SortedStream> streams;
  size_t next = 0;
  for (const ElementSet* set : sets) {
    streams.push_back(set->sorted_by_start
                          ? SortedStream::Scan(ctx->bm, set->file)
                          : std::move(sorted[next++]));
  }
  return streams;
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

Status RunStackTree(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
                    ResultSink* sink, const RunOptions& options) {
  (void)options;
  bool empty = false;
  PBITREE_RETURN_IF_ERROR(ValidateJoinInputs("StackTree", a, d, &empty));
  if (empty) return Status::OK();
  PBITREE_ASSIGN_OR_RETURN(std::vector<SortedStream> in,
                           DocOrderStreams(ctx, {&a, &d}));
  PBITREE_RETURN_IF_ERROR(StackTreeJoin(ctx, &in[0], &in[1], sink));
  PBITREE_RETURN_IF_ERROR(in[0].Close());
  return in[1].Close();
}

Status RunMpmgjn(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
                 ResultSink* sink, const RunOptions& options) {
  (void)options;
  bool empty = false;
  PBITREE_RETURN_IF_ERROR(ValidateJoinInputs("MPMGJN", a, d, &empty));
  if (empty) return Status::OK();
  // D is rescanned, so an unsorted D is sorted into a file first, with
  // the whole budget; A then streams.
  ScratchFile d_copy;
  if (!d.sorted_by_start) {
    Timer t;
    PBITREE_ASSIGN_OR_RETURN(d_copy, SortToFile(ctx->bm, d.file, ctx->work_pages,
                                                SortOrder::kStartOrder));
    ctx->stats.sort_seconds += t.ElapsedSeconds();
  }
  PBITREE_ASSIGN_OR_RETURN(std::vector<SortedStream> in,
                           DocOrderStreams(ctx, {&a}));
  PBITREE_RETURN_IF_ERROR(Mpmgjn(ctx, &in[0],
                                 d.sorted_by_start ? d.file : *d_copy, sink));
  PBITREE_RETURN_IF_ERROR(in[0].Close());
  return d_copy.Drop();
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
        Scratch<BPTree> d_index,
        BuildBPTreeOnTheFly(bm, d, KeyKind::kCode, ctx->work_pages,
                            &ctx->stats));
    idx.d_code_index = d_index.get();
    PBITREE_RETURN_IF_ERROR(Inljn(ctx, a, d, idx, sink));
    return d_index.Drop();
  }
  PBITREE_ASSIGN_OR_RETURN(
      Scratch<IntervalIndex> a_index,
      BuildIndexOnTheFly<IntervalIndex>(
          bm, a, SortOrder::kStartOrder, ctx->work_pages, &ctx->stats,
          [&](SortedStream* sorted) {
            return IntervalIndex::BulkLoad(bm, sorted);
          }));
  idx.a_interval_index = a_index.get();
  PBITREE_RETURN_IF_ERROR(Inljn(ctx, a, d, idx, sink));
  return a_index.Drop();
}

Status RunAdb(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
              ResultSink* sink, const RunOptions& options) {
  (void)options;
  BufferManager* bm = ctx->bm;
  PBITREE_ASSIGN_OR_RETURN(
      Scratch<BPTree> a_idx,
      BuildBPTreeOnTheFly(bm, a, KeyKind::kStart, ctx->work_pages,
                          &ctx->stats));
  PBITREE_ASSIGN_OR_RETURN(
      Scratch<BPTree> d_idx,
      BuildBPTreeOnTheFly(bm, d, KeyKind::kStart, ctx->work_pages,
                          &ctx->stats));
  PBITREE_RETURN_IF_ERROR(AdbJoin(ctx, a, d, *a_idx, *d_idx, sink));
  PBITREE_RETURN_IF_ERROR(a_idx.Drop());
  return d_idx.Drop();
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
