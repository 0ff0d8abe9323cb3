#include "join/vpj.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "join/hash_equijoin.h"
#include "join/validate.h"
#include "obs/metrics.h"

namespace pbitree {

namespace {

int CeilLog2(uint64_t n) {
  if (n <= 1) return 0;
  return 64 - std::countl_zero(n - 1);
}

int FloorLog2(uint64_t n) {
  if (n <= 1) return 0;
  return 63 - std::countl_zero(n);
}

/// One vertical partition: the subtree of one level-l node.
struct Partition {
  uint64_t alpha = 0;
  HeapFile a;
  HeapFile d;
  uint64_t a_mask = 0;          // heights present on the A side
  bool has_replicated_a = false;  // some A element here is also elsewhere
  uint64_t min_start = UINT64_MAX;  // A-side range (clamped to the subtree)
  uint64_t max_end = 0;
};

/// Alpha (left-to-right index) of the level-l node whose subtree
/// contains the leaf `leaf_code`.
uint64_t AlphaOfLeaf(Code leaf_code, int h_cut) {
  return AncestorAtHeight(leaf_code, h_cut) >> (h_cut + 1);
}

/// In-memory join when D fits in the budget (Algorithm 6, line 2):
/// sort D by code, then for every scanned a emit the D codes inside
/// a's subtree interval [Start(a), End(a)] — exactly its descendants.
Status SortedProbeJoin(JoinContext* ctx, const HeapFile& a_file,
                       const HeapFile& d_file, ResultSink* sink) {
  PBITREE_ASSIGN_OR_RETURN(std::vector<ElementRecord> d_mem,
                           LoadAllRecords(ctx->bm, d_file));
  std::vector<Code> d_codes(d_mem.size());
  for (size_t i = 0; i < d_mem.size(); ++i) d_codes[i] = d_mem[i].code;
  std::sort(d_codes.begin(), d_codes.end());

  PairBuffer out(sink, &ctx->stats.output_pairs);
  HeapFile::Scanner scan(ctx->bm, a_file);
  for (auto batch = scan.NextElementBatch(); !batch.empty();
       batch = scan.NextElementBatch()) {
    for (const ElementRecord& rec : batch) {
      CodeInterval iv = SubtreeInterval(rec.code);
      auto lo = std::lower_bound(d_codes.begin(), d_codes.end(), iv.lo);
      auto hi = std::upper_bound(lo, d_codes.end(), iv.hi);
      for (auto it = lo; it != hi; ++it) {
        if (*it == rec.code) continue;  // the element itself, not a descendant
        PBITREE_RETURN_IF_ERROR(out.Emit(rec.code, *it));
      }
    }
  }
  PBITREE_RETURN_IF_ERROR(scan.status());
  return out.Flush();
}

/// Algorithm 6: D in memory -> sorted probe; otherwise MHCJ+Rollup
/// (whose hash join keeps the fitting A side in memory).
Status MemoryContainmentJoin(JoinContext* ctx, const HeapFile& a_file,
                             const HeapFile& d_file, uint64_t a_mask,
                             ResultSink* sink) {
  if (a_file.num_records() == 0 || d_file.num_records() == 0) {
    return Status::OK();
  }
  if (d_file.num_records() <= ctx->WorkRecordBudget()) {
    return SortedProbeJoin(ctx, a_file, d_file, sink);
  }
  int h_max = 63 - std::countl_zero(a_mask);
  return HashEquijoinAtHeight(ctx, a_file, d_file, h_max, sink);
}

struct VpjRunner {
  JoinContext* ctx;
  PBiTreeSpec spec;
  VpjOptions opts;
  ResultSink* sink;

  Status Run(const HeapFile& a_file, const HeapFile& d_file, uint64_t a_mask,
             uint64_t range_lo, uint64_t range_hi, int depth) {
    if (a_file.num_records() == 0 || d_file.num_records() == 0) {
      return Status::OK();
    }
    if (depth > static_cast<int>(ctx->stats.recursion_depth)) {
      ctx->stats.recursion_depth = depth;
    }
    obs::GaugeMax(obs::Gauge::kJoinRecursionDepth, depth);

    const uint64_t budget = ctx->WorkRecordBudget();
    if (std::min(a_file.num_records(), d_file.num_records()) <= budget ||
        depth >= opts.max_recursion) {
      return MemoryContainmentJoin(ctx, a_file, d_file, a_mask, sink);
    }

    // ---- Choose the cut level (Algorithm 5, lines 1-2).
    // The cut is placed relative to the *ancestor set's* common-
    // ancestor subtree, not the root, for two reasons. First,
    // real-world element sets are clustered inside one small subtree
    // (every `person` under one `people` node), and cutting above
    // their common ancestor would put everything into a single
    // partition, wasting a full rewrite per level. Second, every
    // result pair lives inside an ancestor's subtree, so descendants
    // outside [range_lo, range_hi] cannot participate at all — they
    // are dropped during partitioning (purging one pass early).
    int anc_height;  // height of the A range's common-ancestor node
    if (range_lo > range_hi) {
      anc_height = spec.height - 1;  // unknown range: assume the root
    } else {
      int w = 64 - std::countl_zero(range_lo ^ range_hi);
      anc_height = w == 0 ? 0 : w - 1;
    }
    const int l0 = spec.height - 1 - anc_height;
    if (l0 >= spec.height - 1) {
      // Data collapses to a single leaf subtree: nothing to cut.
      return MemoryContainmentJoin(ctx, a_file, d_file, a_mask, sink);
    }

    const uint64_t b = std::max<uint64_t>(ctx->work_pages, 1);
    const uint64_t min_pages = std::min(a_file.num_pages(), d_file.num_pages());
    // Twice the minimum partition count: halving the average partition
    // gives headroom against skew (a partition that still exceeds the
    // budget costs a whole recursive rewrite), and extra partitions are
    // free in I/O — the partitioning pass writes the same pages either
    // way.
    const uint64_t k0 = (2 * min_pages + b - 1) / b;
    int l = l0 + std::max(CeilLog2(k0), 1);
    // Output-buffer constraint: ~2^(l - l0) partition appenders are
    // pinned at once and the pool holds work_pages (+ a small margin)
    // frames; cap the span so the appenders plus the input scan fit,
    // and let recursion cover anything beyond.
    int max_span = FloorLog2(std::max<uint64_t>(ctx->work_pages + 3, 4));
    if (max_span < 1) max_span = 1;
    l = std::min(l, l0 + max_span);
    l = std::min(l, spec.height - 1);
    // Replication cap: an ancestor at height h is copied to
    // 2^(h - h_cut) partitions, so cutting far below the ancestor
    // heights would blow the partition files up instead of shrinking
    // them. Keep the worst-case replication factor at 16; if the cap
    // leaves no room to cut below the data's common ancestor, vertical
    // partitioning cannot help — hand over to the hash-equijoin memory
    // join, which handles any memory budget via Grace partitioning.
    const int h_amax = 63 - std::countl_zero(a_mask);
    const int repl_cap_level = spec.height - 1 - std::max(h_amax - 4, 0);
    l = std::min(l, repl_cap_level);
    if (l <= l0) {
      return MemoryContainmentJoin(ctx, a_file, d_file, a_mask, sink);
    }
    const int h_cut = spec.height - 1 - l;

    // ---- Partition both inputs (Algorithm 5, line 3).
    // Deque, not vector: open appenders hold pointers to the heap-file
    // handles inside, and lazy creation keeps pushing while they are
    // live — references must stay stable.
    std::deque<Partition> parts;
    std::unordered_map<uint64_t, size_t> index;  // alpha -> parts slot
    std::vector<std::unique_ptr<HeapFile::Appender>> a_apps, d_apps;

    // Error-path sweeper: drops every partition file that still holds
    // pages. Safe to run over moved-from handles (their page directory
    // is empty, so Drop is a no-op).
    auto drop_partitions = [&](std::vector<Partition>* extra,
                               Status keep) -> Status {
      auto drop_one = [&](Partition& p) {
        for (HeapFile* f : {&p.a, &p.d}) {
          if (!f->valid()) continue;
          Status s = f->Drop(ctx->bm);
          if (keep.ok()) keep = s;
        }
      };
      for (Partition& p : parts) drop_one(p);
      if (extra != nullptr) {
        for (Partition& p : *extra) drop_one(p);
      }
      return keep;
    };

    auto slot_for = [&](uint64_t alpha) -> size_t {
      auto it = index.find(alpha);
      if (it != index.end()) return it->second;
      size_t s = parts.size();
      parts.push_back(Partition{alpha, {}, {}, 0, false, UINT64_MAX, 0});
      a_apps.emplace_back(nullptr);
      d_apps.emplace_back(nullptr);
      index.emplace(alpha, s);
      return s;
    };

    {
      obs::ObsSpan partition_span(obs::Phase::kPartition);
      Status st = [&]() -> Status {
      HeapFile::Scanner scan(ctx->bm, a_file);
      for (auto recs = scan.NextElementBatch(); !recs.empty();
           recs = scan.NextElementBatch()) {
       for (const ElementRecord& rec : recs) {
        int h = HeightOf(rec.code);
        uint64_t lo, hi;
        if (h <= h_cut) {
          lo = hi = AlphaOfLeaf(StartOf(rec.code), h_cut);
        } else {
          lo = AlphaOfLeaf(StartOf(rec.code), h_cut);
          hi = AlphaOfLeaf(EndOf(rec.code), h_cut);
        }
        for (uint64_t alpha = lo; alpha <= hi; ++alpha) {
          size_t s = slot_for(alpha);
          if (a_apps[s] == nullptr) {
            PBITREE_ASSIGN_OR_RETURN(parts[s].a, HeapFile::Create(ctx->bm));
            a_apps[s] = std::make_unique<HeapFile::Appender>(ctx->bm, &parts[s].a);
          }
          PBITREE_RETURN_IF_ERROR(a_apps[s]->AppendElement(rec));
          parts[s].a_mask |= uint64_t{1} << h;
          // Range update, clamped to this partition's subtree: a
          // replicated ancestor spans several partitions, and letting
          // its full region leak into one partition's range would make
          // the recursive cut needlessly shallow.
          Code part_node = (2 * alpha + 1) << h_cut;
          uint64_t sub_lo = StartOf(part_node), sub_hi = EndOf(part_node);
          parts[s].min_start =
              std::min(parts[s].min_start, std::max(StartOf(rec.code), sub_lo));
          parts[s].max_end =
              std::max(parts[s].max_end, std::min(EndOf(rec.code), sub_hi));
          if (hi > lo) parts[s].has_replicated_a = true;
        }
        if (hi > lo) ctx->stats.replicated_nodes += hi - lo;
       }
      }
      PBITREE_RETURN_IF_ERROR(scan.status());
      // Close the A-side partitions explicitly: a failed tail-page
      // write-back must fail the join, not vanish in a destructor.
      for (auto& app : a_apps) {
        if (app != nullptr) PBITREE_RETURN_IF_ERROR(app->Finish());
      }
      return Status::OK();
      }();
      a_apps.clear();  // unpin A tails before the D pass
      if (!st.ok()) return drop_partitions(nullptr, st);
    }
    {
      obs::ObsSpan partition_span(obs::Phase::kPartition);
      Status st = [&]() -> Status {
      HeapFile::Scanner scan(ctx->bm, d_file);
      for (auto recs = scan.NextElementBatch(); !recs.empty();
           recs = scan.NextElementBatch()) {
       for (const ElementRecord& rec : recs) {
        // Every result pair lies inside some ancestor's subtree, i.e.
        // the descendant's code falls in the A range — drop the rest
        // right here instead of purging their partitions a pass later.
        if (range_lo <= range_hi &&
            (rec.code < range_lo || rec.code > range_hi)) {
          continue;
        }
        // Descendant-set elements go to exactly one partition: their
        // level-l ancestor when below the cut, else the partition of
        // their leftmost level-l descendant (covered by the replication
        // of all their ancestors).
        uint64_t alpha = AlphaOfLeaf(StartOf(rec.code), h_cut);
        size_t s = slot_for(alpha);
        if (d_apps[s] == nullptr) {
          PBITREE_ASSIGN_OR_RETURN(parts[s].d, HeapFile::Create(ctx->bm));
          d_apps[s] = std::make_unique<HeapFile::Appender>(ctx->bm, &parts[s].d);
        }
        PBITREE_RETURN_IF_ERROR(d_apps[s]->AppendElement(rec));
       }
      }
      PBITREE_RETURN_IF_ERROR(scan.status());
      for (auto& app : d_apps) {
        if (app != nullptr) PBITREE_RETURN_IF_ERROR(app->Finish());
      }
      return Status::OK();
      }();
      d_apps.clear();
      if (!st.ok()) return drop_partitions(nullptr, st);
    }
    ctx->stats.partitions += parts.size();

    // ---- Purge one-sided partitions (Algorithm 5 "merging and purging").
    std::vector<Partition> live;
    for (Partition& p : parts) {
      bool empty_a = !p.a.valid() || p.a.num_records() == 0;
      bool empty_d = !p.d.valid() || p.d.num_records() == 0;
      if (opts.enable_purging ? (empty_a || empty_d) : (empty_a && empty_d)) {
        ++ctx->stats.purged_partitions;
        Status st = Status::OK();
        if (p.a.valid()) st = p.a.Drop(ctx->bm);
        if (st.ok() && p.d.valid()) st = p.d.Drop(ctx->bm);
        if (!st.ok()) return drop_partitions(&live, st);
        continue;
      }
      live.push_back(std::move(p));
    }
    std::sort(live.begin(), live.end(),
              [](const Partition& x, const Partition& y) { return x.alpha < y.alpha; });

    // ---- Merge adjacent small partitions. Only replication-free
    // partitions may merge: a replicated ancestor present in two merged
    // partitions would pair with the same descendant twice.
    if (opts.enable_merging) {
      std::vector<Partition> merged;
      for (Partition& p : live) {
        bool can_merge =
            !merged.empty() && !merged.back().has_replicated_a &&
            !p.has_replicated_a &&
            (merged.back().a.num_pages() + p.a.num_pages()) <= ctx->work_pages &&
            (merged.back().d.num_pages() + p.d.num_pages()) <= ctx->work_pages;
        if (can_merge) {
          Partition& tgt = merged.back();
          Status st = Status::OK();
          if (p.a.valid()) {
            if (tgt.a.valid()) {
              st = tgt.a.Concat(ctx->bm, &p.a);
            } else {
              tgt.a = std::move(p.a);
            }
          }
          if (st.ok() && p.d.valid()) {
            if (tgt.d.valid()) {
              st = tgt.d.Concat(ctx->bm, &p.d);
            } else {
              tgt.d = std::move(p.d);
            }
          }
          if (!st.ok()) {
            Status keep = drop_partitions(&merged, st);
            return drop_partitions(&live, keep);
          }
          tgt.a_mask |= p.a_mask;
          tgt.min_start = std::min(tgt.min_start, p.min_start);
          tgt.max_end = std::max(tgt.max_end, p.max_end);
          ++ctx->stats.merged_partitions;
        } else {
          merged.push_back(std::move(p));
        }
      }
      live = std::move(merged);
    }

    // ---- Process each partition pair (Algorithm 5, lines 4-10).
    Status result = Status::OK();
    for (Partition& p : live) {
      if (result.ok()) {
        bool both_big = p.a.num_pages() > ctx->work_pages &&
                        p.d.num_pages() > ctx->work_pages;
        if (both_big) {
          result = Run(p.a, p.d, p.a_mask, p.min_start, p.max_end, depth + 1);
        } else {
          result = MemoryContainmentJoin(ctx, p.a, p.d, p.a_mask, sink);
        }
      }
      if (p.a.valid()) {
        Status s = p.a.Drop(ctx->bm);
        if (result.ok()) result = s;
      }
      if (p.d.valid()) {
        Status s = p.d.Drop(ctx->bm);
        if (result.ok()) result = s;
      }
    }
    return result;
  }
};

}  // namespace

Status Vpj(JoinContext* ctx, const ElementSet& a, const ElementSet& d,
           ResultSink* sink, const VpjOptions& options) {
  bool empty = false;
  PBITREE_RETURN_IF_ERROR(
      ValidateJoinInputs("VPJ", a, d, /*require_sorted=*/false, &empty));
  if (empty) return Status::OK();
  VpjRunner runner{ctx, a.spec, options, sink};
  // The ancestor set's range bounds every possible result pair; it
  // drives both the cut placement and the descendant pre-filter.
  return runner.Run(a.file, d.file, a.height_mask, a.min_start, a.max_end,
                    /*depth=*/0);
}

}  // namespace pbitree
