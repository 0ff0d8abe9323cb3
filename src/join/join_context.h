#ifndef PBITREE_JOIN_JOIN_CONTEXT_H_
#define PBITREE_JOIN_JOIN_CONTEXT_H_

#include <cstdint>

#include "storage/buffer_manager.h"
#include "storage/heap_file.h"

namespace pbitree {

/// \brief Counters every join algorithm fills in while running.
///
/// I/O counters (page reads/writes) are measured externally by the
/// framework runner through its per-operation obs::MetricRegistry
/// scope; the fields here are the algorithm-internal events the paper
/// reports (false hits of MHCJ+Rollup in Table 2(f), partition counts,
/// replication of VPJ).
struct JoinStats {
  uint64_t output_pairs = 0;
  uint64_t false_hits = 0;        // equijoin matches rejected by Lemma 1
  uint64_t partitions = 0;        // horizontal or vertical partitions used
  uint64_t purged_partitions = 0; // VPJ partitions dropped as one-sided
  uint64_t merged_partitions = 0; // VPJ partitions coalesced
  uint64_t replicated_nodes = 0;  // VPJ ancestor replication volume
  uint64_t recursion_depth = 0;   // VPJ maximum recursion depth
  uint64_t index_probes = 0;      // INLJN probes / ADB+ skips
  double sort_seconds = 0.0;        // naive on-the-fly sorting time
  double index_build_seconds = 0.0; // naive on-the-fly index building time

  void Merge(const JoinStats& o) {
    output_pairs += o.output_pairs;
    false_hits += o.false_hits;
    partitions += o.partitions;
    purged_partitions += o.purged_partitions;
    merged_partitions += o.merged_partitions;
    replicated_nodes += o.replicated_nodes;
    if (o.recursion_depth > recursion_depth) recursion_depth = o.recursion_depth;
    index_probes += o.index_probes;
    // Phase timers are wall-clock, so merging parallel workers must
    // take the critical path (max), not the sum — summing would report
    // more phase time than the operation actually took.
    if (o.sort_seconds > sort_seconds) sort_seconds = o.sort_seconds;
    if (o.index_build_seconds > index_build_seconds) {
      index_build_seconds = o.index_build_seconds;
    }
  }
};

/// \brief Everything a join algorithm needs: the buffer pool and the
/// memory budget, plus a stats accumulator.
///
/// `work_pages` is the paper's `b` — the number of buffer pages the
/// algorithm may assume for working storage (hash tables, sort runs,
/// partition output buffers). It should not exceed the buffer pool
/// size; the buffer-size experiments (Figure 6(e)/(f)) vary both
/// together.
struct JoinContext {
  BufferManager* bm = nullptr;
  size_t work_pages = 0;
  JoinStats stats;

  JoinContext(BufferManager* buffer_manager, size_t pages)
      : bm(buffer_manager), work_pages(pages) {}

  /// Records budgeted in-memory working storage: `work_pages` pages of
  /// 16-byte records.
  uint64_t WorkRecordBudget() const {
    return static_cast<uint64_t>(work_pages) * HeapFile::kRecordsPerPage;
  }
};

}  // namespace pbitree

#endif  // PBITREE_JOIN_JOIN_CONTEXT_H_
