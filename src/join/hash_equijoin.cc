#include "join/hash_equijoin.h"

#include <algorithm>
#include <memory>
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

/// Rolled join key of an element for target height `h`. For an element
/// already at height h this is its own code (F(n, height(n)) = n).
uint64_t RolledKey(Code code, int h) { return AncestorAtHeight(code, h); }

/// Emits one rolled-key match into the join's staging buffer if the
/// exact Lemma-1 predicate holds; otherwise counts a false hit.
Status EmitMatch(JoinContext* ctx, Code a, Code d, PairBuffer* out) {
  if (IsAncestor(a, d)) return out->Emit(a, d);
  ++ctx->stats.false_hits;
  return Status::OK();
}

/// In-memory build/probe join of one (sub-)partition pair. `build_a`
/// says which side the hash table is built on; emission is always
/// (a, d) with the Lemma-1 residual check.
Status InMemoryJoin(JoinContext* ctx, const HeapFile& a_file,
                    const HeapFile& d_file, int h, bool build_a,
                    ResultSink* sink) {
  const HeapFile& build = build_a ? a_file : d_file;
  const HeapFile& probe = build_a ? d_file : a_file;

  std::unordered_multimap<uint64_t, Code> table;
  table.reserve(build.num_records());
  // Rolled keys for the whole zero-copy batch, computed by the batch
  // kernel.
  std::vector<uint64_t> keys;
  {
    obs::ObsSpan build_span(obs::Phase::kBuild);
    HeapFile::Scanner scan(ctx->bm, build);
    for (auto batch = scan.NextElementBatch(); !batch.empty();
         batch = scan.NextElementBatch()) {
      keys.resize(batch.size());
      simd::RolledKeys(reinterpret_cast<const uint64_t*>(batch.data()), 2,
                       batch.size(), h, keys.data());
      for (size_t i = 0; i < batch.size(); ++i) {
        table.emplace(keys[i], batch[i].code);
      }
    }
    PBITREE_RETURN_IF_ERROR(scan.status());
  }

  obs::ObsSpan probe_span(obs::Phase::kProbe);
  PairBuffer out(sink, &ctx->stats.output_pairs);
  HeapFile::Scanner scan(ctx->bm, probe);
  for (auto batch = scan.NextElementBatch(); !batch.empty();
       batch = scan.NextElementBatch()) {
    keys.resize(batch.size());
    simd::RolledKeys(reinterpret_cast<const uint64_t*>(batch.data()), 2,
                     batch.size(), h, keys.data());
    for (size_t i = 0; i < batch.size(); ++i) {
      const ElementRecord& rec = batch[i];
      auto [lo, hi] = table.equal_range(keys[i]);
      for (auto it = lo; it != hi; ++it) {
        Code a = build_a ? it->second : rec.code;
        Code d = build_a ? rec.code : it->second;
        PBITREE_RETURN_IF_ERROR(EmitMatch(ctx, a, d, &out));
      }
    }
  }
  PBITREE_RETURN_IF_ERROR(scan.status());
  return out.Flush();
}

/// Block nested-loop fallback for pathologically skewed partitions where
/// one rolled key holds more records than memory: join in chunks of the
/// build side. I/O = ||probe|| * ceil(||build|| / budget).
Status BlockNestedLoopJoin(JoinContext* ctx, const HeapFile& a_file,
                           const HeapFile& d_file, int h, ResultSink* sink) {
  const bool build_a = a_file.num_pages() <= d_file.num_pages();
  const HeapFile& build = build_a ? a_file : d_file;
  const HeapFile& probe = build_a ? d_file : a_file;
  const uint64_t chunk = std::max<uint64_t>(ctx->WorkRecordBudget(), 1);

  HeapFile::BatchCursor build_cur(ctx->bm, build);
  PairBuffer out(sink, &ctx->stats.output_pairs);
  bool more = true;
  while (more) {
    std::unordered_multimap<uint64_t, Code> table;
    uint64_t n = 0;
    for (; build_cur.live() && n < chunk; build_cur.Advance()) {
      const Code c = build_cur.rec().code;
      table.emplace(RolledKey(c, h), c);
      ++n;
    }
    if (!build_cur.live()) {
      PBITREE_RETURN_IF_ERROR(build_cur.status());
      more = false;
    }
    if (table.empty()) break;
    HeapFile::Scanner probe_scan(ctx->bm, probe);
    std::vector<uint64_t> keys;
    for (auto batch = probe_scan.NextElementBatch(); !batch.empty();
         batch = probe_scan.NextElementBatch()) {
      keys.resize(batch.size());
      simd::RolledKeys(reinterpret_cast<const uint64_t*>(batch.data()), 2,
                       batch.size(), h, keys.data());
      for (size_t i = 0; i < batch.size(); ++i) {
        const ElementRecord& rec = batch[i];
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
    bool build_a = a_file.num_records() <= d_file.num_records();
    return InMemoryJoin(ctx, a_file, d_file, h, build_a, sink);
  }
  if (depth >= 3) {
    // Re-partitioning stopped helping (duplicate-heavy rolled keys);
    // degrade gracefully instead of recursing forever.
    return BlockNestedLoopJoin(ctx, a_file, d_file, h, sink);
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
