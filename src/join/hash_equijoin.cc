#include "join/hash_equijoin.h"

#include <algorithm>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "pbitree/simd.h"
#include "storage/scratch.h"

namespace pbitree {

namespace {

/// splitmix64 finaliser, salted per recursion depth so that re-partitioning
/// a skewed partition re-shuffles the keys.
uint64_t HashKey(uint64_t key, int salt) {
  uint64_t z = key + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Emits one rolled-key match into the join's staging buffer if the
/// exact Lemma-1 predicate holds; otherwise counts a false hit.
Status EmitMatch(JoinContext* ctx, Code a, Code d, PairBuffer* out) {
  if (IsAncestor(a, d)) return out->Emit(a, d);
  ++ctx->stats.false_hits;
  return Status::OK();
}

/// Build/probe join of one (sub-)partition pair: hash tables of at most
/// `chunk` build-side records each, every table probed by one scan of
/// the other side. `build_a` says which side the tables are built on;
/// emission is always (a, d) with the Lemma-1 residual check. One chunk
/// is the in-memory join (I/O = ||A|| + ||D||); more chunks are the
/// block nested-loop fallback for partitions whose rolled keys are too
/// skewed to split (I/O = ||build|| + ||probe|| * chunks).
Status BuildProbeJoin(JoinContext* ctx, const HeapFile& a_file,
                      const HeapFile& d_file, int h, bool build_a,
                      uint64_t chunk, ResultSink* sink) {
  const HeapFile& build = build_a ? a_file : d_file;
  const HeapFile& probe = build_a ? d_file : a_file;

  // The build scan stays open across chunks; `next` is the first record
  // of `batch` not yet in a table. Rolled keys for each zero-copy batch
  // are computed by the batch kernel.
  HeapFile::Scanner build_scan(ctx->bm, build);
  std::span<const ElementRecord> batch = build_scan.NextElementBatch();
  std::vector<uint64_t> build_keys;
  size_t next = 0;
  uint64_t remaining = build.num_records();
  std::vector<uint64_t> keys;
  PairBuffer out(sink, &ctx->stats.output_pairs);
  while (!batch.empty()) {
    std::unordered_multimap<uint64_t, Code> table;
    table.reserve(std::min(chunk, remaining));
    {
      obs::ObsSpan build_span(obs::Phase::kBuild);
      for (uint64_t n = 0; !batch.empty() && n < chunk;) {
        if (next == 0) {
          build_keys.resize(batch.size());
          simd::RolledKeys(reinterpret_cast<const uint64_t*>(batch.data()), 2,
                           batch.size(), h, build_keys.data());
        }
        const size_t end =
            next + std::min<uint64_t>(batch.size() - next, chunk - n);
        for (size_t i = next; i < end; ++i) {
          table.emplace(build_keys[i], batch[i].code);
        }
        n += end - next;
        remaining -= end - next;
        next = end;
        if (next == batch.size()) {
          batch = build_scan.NextElementBatch();
          next = 0;
        }
      }
      PBITREE_RETURN_IF_ERROR(build_scan.status());
    }

    obs::ObsSpan probe_span(obs::Phase::kProbe);
    HeapFile::Scanner probe_scan(ctx->bm, probe);
    for (auto pb = probe_scan.NextElementBatch(); !pb.empty();
         pb = probe_scan.NextElementBatch()) {
      keys.resize(pb.size());
      simd::RolledKeys(reinterpret_cast<const uint64_t*>(pb.data()), 2,
                       pb.size(), h, keys.data());
      for (size_t i = 0; i < pb.size(); ++i) {
        const ElementRecord& rec = pb[i];
        auto [lo, hi] = table.equal_range(keys[i]);
        for (auto it = lo; it != hi; ++it) {
          Code a = build_a ? it->second : rec.code;
          Code d = build_a ? rec.code : it->second;
          PBITREE_RETURN_IF_ERROR(EmitMatch(ctx, a, d, &out));
        }
      }
    }
    PBITREE_RETURN_IF_ERROR(probe_scan.status());
  }
  PBITREE_RETURN_IF_ERROR(build_scan.status());  // a failed first fetch
  return out.Flush();
}

/// Hash-partitions `input` on the rolled key into `k` files; a slot no
/// record hashed to holds no file.
StatusOr<std::vector<ScratchFile>> PartitionFile(JoinContext* ctx,
                                                 const HeapFile& input, int h,
                                                 size_t k, int salt) {
  obs::ObsSpan partition_span(obs::Phase::kPartition);
  std::vector<ScratchFile> parts(k);
  std::vector<std::unique_ptr<HeapFile::Appender>> apps(k);
  HeapFile::Scanner scan(ctx->bm, input);
  std::vector<uint64_t> keys;
  for (auto batch = scan.NextElementBatch(); !batch.empty();
       batch = scan.NextElementBatch()) {
    keys.resize(batch.size());
    simd::RolledKeys(reinterpret_cast<const uint64_t*>(batch.data()), 2,
                     batch.size(), h, keys.data());
    for (size_t i = 0; i < batch.size(); ++i) {
      size_t p = HashKey(keys[i], salt) % k;
      if (apps[p] == nullptr) {
        PBITREE_ASSIGN_OR_RETURN(parts[p], ScratchFile::Create(ctx->bm));
        apps[p] = std::make_unique<HeapFile::Appender>(ctx->bm, parts[p].get());
      }
      PBITREE_RETURN_IF_ERROR(apps[p]->AppendElement(batch[i]));
    }
  }
  PBITREE_RETURN_IF_ERROR(scan.status());
  // Close every partition explicitly so a failed final-page unpin
  // surfaces here instead of vanishing in a destructor.
  for (auto& app : apps) {
    if (app != nullptr) PBITREE_RETURN_IF_ERROR(app->Finish());
  }
  return parts;
}

Status HashJoinRecursive(JoinContext* ctx, const HeapFile& a_file,
                         const HeapFile& d_file, int h, ResultSink* sink,
                         int depth) {
  if (a_file.num_records() == 0 || d_file.num_records() == 0) {
    return Status::OK();
  }
  const uint64_t budget = ctx->WorkRecordBudget();
  const uint64_t smaller =
      std::min(a_file.num_records(), d_file.num_records());
  if (smaller <= budget) {
    // In memory: the side with fewer records, in one chunk.
    const bool build_a = a_file.num_records() <= d_file.num_records();
    const HeapFile& build = build_a ? a_file : d_file;
    return BuildProbeJoin(ctx, a_file, d_file, h, build_a,
                          build.num_records(), sink);
  }
  if (depth >= 3) {
    // Re-partitioning stopped helping (duplicate-heavy rolled keys);
    // degrade gracefully instead of recursing forever: the side with
    // fewer pages, in budget-sized chunks.
    return BuildProbeJoin(ctx, a_file, d_file, h,
                          a_file.num_pages() <= d_file.num_pages(),
                          std::max<uint64_t>(budget, 1), sink);
  }

  // Partition count: enough that the smaller side of each pair fits in
  // the budget.
  const uint64_t min_pages = std::min(a_file.num_pages(), d_file.num_pages());
  size_t k = static_cast<size_t>(
      (min_pages + ctx->work_pages - 2) /
      std::max<size_t>(ctx->work_pages - 1, 1));
  k = std::max<size_t>(k, 2);
  k = std::min<size_t>(k, std::max<size_t>(ctx->work_pages - 2, 2));

  PBITREE_ASSIGN_OR_RETURN(std::vector<ScratchFile> a_parts,
                           PartitionFile(ctx, a_file, h, k, depth));
  PBITREE_ASSIGN_OR_RETURN(std::vector<ScratchFile> d_parts,
                           PartitionFile(ctx, d_file, h, k, depth));
  ctx->stats.partitions += k;

  for (size_t i = 0; i < k; ++i) {
    if (a_parts[i]->valid() && d_parts[i]->valid()) {
      PBITREE_RETURN_IF_ERROR(HashJoinRecursive(ctx, *a_parts[i], *d_parts[i],
                                                h, sink, depth + 1));
    }
    PBITREE_RETURN_IF_ERROR(a_parts[i].Drop());
    PBITREE_RETURN_IF_ERROR(d_parts[i].Drop());
  }
  return Status::OK();
}

}  // namespace

Status HashEquijoinAtHeight(JoinContext* ctx, const HeapFile& a_file,
                            const HeapFile& d_file, int target_height,
                            ResultSink* sink) {
  if (target_height < 0 || target_height >= kMaxTreeHeight) {
    return Status::InvalidArgument("bad target height");
  }
  return HashJoinRecursive(ctx, a_file, d_file, target_height, sink, 0);
}

StatusOr<std::vector<ElementRecord>> LoadAllRecords(BufferManager* bm,
                                                    const HeapFile& file) {
  std::vector<ElementRecord> out;
  out.reserve(file.num_records());
  HeapFile::Scanner scan(bm, file);
  for (auto batch = scan.NextElementBatch(); !batch.empty();
       batch = scan.NextElementBatch()) {
    out.insert(out.end(), batch.begin(), batch.end());
  }
  PBITREE_RETURN_IF_ERROR(scan.status());
  return out;
}

}  // namespace pbitree
