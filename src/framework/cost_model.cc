#include "framework/cost_model.h"

#include <algorithm>

#include "index/bptree.h"
#include "storage/heap_file.h"

namespace pbitree {

namespace {

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// ceil(log_base(n)) for n >= 1, base >= 2.
uint64_t CeilLogBase(uint64_t n, uint64_t base) {
  uint64_t passes = 0;
  uint64_t reach = 1;
  while (reach < n) {
    reach *= base;
    ++passes;
  }
  return passes;
}

/// Height of a B+-tree over `records` entries (probe cost per lookup).
uint64_t BTreeProbeCost(uint64_t records) {
  uint64_t leaves = std::max<uint64_t>(CeilDiv(records, BPTree::kLeafCapacity), 1);
  return 1 + CeilLogBase(leaves, BPTree::kInteriorCapacity);
}

/// Pages `records` records take when written raw, as every partition
/// is.
uint64_t RawPages(uint64_t records) {
  return CeilDiv(records, HeapFile::kRecordsPerPage);
}

/// On-the-fly sort of an input whose `records` take `pages` pages, into
/// the stream its consumer reads: the input is read at its own density,
/// the runs and merge passes are raw (see SortCostPages).
uint64_t InputSortCost(uint64_t pages, uint64_t records, uint64_t b) {
  const uint64_t raw = RawPages(records);
  return pages + SortCostPages(raw, b) - raw;
}

/// On-the-fly sort of an input into a sorted file that its consumer
/// then scans (SortToFile, MPMGJN's rescanned side): raw runs merged
/// down to one, which is the file.
uint64_t InputSortToFileCost(uint64_t pages, uint64_t records, uint64_t b) {
  const uint64_t raw = RawPages(records);
  const uint64_t passes = CeilLogBase(std::max<uint64_t>(CeilDiv(raw, b), 1), b - 1);
  return pages + raw * (1 + 2 * passes) + raw;
}

/// Hash-equijoin cost shared by SHCJ, MHCJ+Rollup and VPJ: one read of
/// each side when the smaller fits in memory, else the Grace 3-pass —
/// the inputs read at their own density, the partitions written and
/// re-read raw.
uint64_t HashJoinCost(uint64_t a_pages, uint64_t a_records, uint64_t d_pages,
                      uint64_t d_records, uint64_t b) {
  const uint64_t a_raw = RawPages(a_records);
  const uint64_t d_raw = RawPages(d_records);
  if (std::min(a_raw, d_raw) <= b) return a_pages + d_pages;
  return a_pages + d_pages + 2 * (a_raw + d_raw);
}

}  // namespace

CostInputs CostInputs::FromSets(const ElementSet& a, const ElementSet& d,
                                uint64_t work_pages) {
  CostInputs in;
  in.a_pages = a.num_pages();
  in.d_pages = d.num_pages();
  in.a_records = a.num_records();
  in.d_records = d.num_records();
  in.a_num_heights = std::max(a.NumHeights(), 1);
  in.a_sorted = a.sorted_by_start;
  in.d_sorted = d.sorted_by_start;
  in.work_pages = work_pages;
  return in;
}

uint64_t SortCostPages(uint64_t pages, uint64_t work_pages) {
  const uint64_t b = std::max<uint64_t>(work_pages, 3);
  // ExternalSort's stream holds at most this many pages; 3 stay with
  // the consumer.
  const uint64_t hold = b >= 5 ? b - 3 : 2;
  if (pages <= hold) return pages;  // sorted in memory: read once
  uint64_t runs = CeilDiv(pages, b);
  uint64_t merge_passes = 0;
  while (runs > hold) {
    runs = CeilDiv(runs, b - 1);
    ++merge_passes;
  }
  // Read, runs written and read once by the streamed final merge, and a
  // write and a read per merge pass.
  return pages + 2 * pages * (1 + merge_passes);
}

uint64_t EstimateJoinIO(Algorithm alg, const CostInputs& in) {
  const uint64_t b = std::max<uint64_t>(in.work_pages, 3);

  switch (alg) {
    case Algorithm::kShcj:
    case Algorithm::kMhcjRollup:
    case Algorithm::kVpj:
      // All three partitioning algorithms share the 3(||A||+||D||)
      // out-of-memory bound with the one-pass in-memory discount; VPJ
      // recursion and rollup false hits do not change the I/O order.
      return HashJoinCost(in.a_pages, in.a_records, in.d_pages, in.d_records,
                          b);

    case Algorithm::kMhcj: {
      // 5||A|| + sum of per-partition SHCJ costs (Section 3.2): read A,
      // write its height partitions raw, then join each. Assume even
      // height distribution.
      uint64_t k = std::max<uint64_t>(in.a_num_heights, 1);
      uint64_t part_records = std::max<uint64_t>(CeilDiv(in.a_records, k), 1);
      return in.a_pages + RawPages(in.a_records) +
             k * HashJoinCost(RawPages(part_records), part_records,
                              in.d_pages, in.d_records, b);
    }

    case Algorithm::kStackTree:
    case Algorithm::kMpmgjn: {
      // The merge itself (MPMGJN rescans are mostly buffer hits on real
      // data): a sorted input is scanned in place, an unsorted one is
      // sorted into the stream the merge reads. MPMGJN rescans D, so an
      // unsorted D is sorted into a file that it scans.
      const uint64_t a_cost = in.a_sorted ? in.a_pages
                                          : InputSortCost(in.a_pages,
                                                          in.a_records, b);
      if (in.d_sorted) return a_cost + in.d_pages;
      return a_cost + (alg == Algorithm::kStackTree
                           ? InputSortCost(in.d_pages, in.d_records, b)
                           : InputSortToFileCost(in.d_pages, in.d_records, b));
    }

    case Algorithm::kInljn: {
      // Outer scan + one index probe per outer record, after building
      // the inner index (sorted straight into its bulk load).
      uint64_t probe_d = in.a_pages +
                         in.a_records * BTreeProbeCost(in.d_records) +
                         InputSortCost(in.d_pages, in.d_records, b);
      uint64_t probe_a = in.d_pages +
                         in.d_records * BTreeProbeCost(in.a_records) +
                         InputSortCost(in.a_pages, in.a_records, b);
      return std::min(probe_d, probe_a);
    }

    case Algorithm::kAdb: {
      // Leaf-chain scans of both indexes (skips can only reduce this),
      // after building both (each sorted straight into its bulk load).
      return CeilDiv(in.a_records, BPTree::kLeafCapacity) +
             CeilDiv(in.d_records, BPTree::kLeafCapacity) +
             InputSortCost(in.a_pages, in.a_records, b) +
             InputSortCost(in.d_pages, in.d_records, b);
    }
  }
  return UINT64_MAX;
}

}  // namespace pbitree
