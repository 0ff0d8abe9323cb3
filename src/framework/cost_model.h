#ifndef PBITREE_FRAMEWORK_COST_MODEL_H_
#define PBITREE_FRAMEWORK_COST_MODEL_H_

#include <cstdint>

#include "framework/planner.h"
#include "join/element_set.h"

namespace pbitree {

/// \brief Inputs of the analytical I/O cost model (Section 3.4.1 of
/// the paper).
///
/// Costs are in page I/Os. Sorting and index builds are charged to the
/// algorithms that need them (the naive mode of the experiments): no
/// input carries an index, so INLJN and ADB+ always pay for theirs.
struct CostInputs {
  uint64_t a_pages = 0;
  uint64_t d_pages = 0;
  uint64_t a_records = 0;
  uint64_t d_records = 0;
  int a_num_heights = 1;
  bool a_sorted = false;
  bool d_sorted = false;
  uint64_t work_pages = 500;  // the paper's b

  /// Convenience constructor from two element sets.
  static CostInputs FromSets(const ElementSet& a, const ElementSet& d,
                             uint64_t work_pages);
};

/// Cost of sorting a file of raw pages into the stream its consumer
/// reads (ExternalSort): one read when the pages fit the stream's share
/// of `work_pages`, else pages + 2 * pages * (1 + merge passes) — the
/// runs are written raw and read once by the streamed final merge, and
/// no sorted copy is written or read.
uint64_t SortCostPages(uint64_t pages, uint64_t work_pages);

/// Estimated page I/O of running `alg` on the given inputs. Estimates
/// follow the paper's formulas:
///  - SHCJ / MHCJ+Rollup: ||A||+||D|| in memory, else 3(||A||+||D||);
///  - MHCJ: 5||A|| + 3k||D|| for k height partitions (with the same
///    in-memory discount per partition);
///  - VPJ: 3(||A||+||D||) (+ nothing for the common non-recursive
///    case);
///  - STACKTREE / MPMGJN: ||A||+||D|| plus sort costs when unsorted;
///  - INLJN: min over the two probe directions of outer scan + probes,
///    plus sort + build of the inner index;
///  - ADB+: scan of both leaf levels plus sort + build of both Start
///    indexes.
/// Partitions, sort runs and sorted copies are written raw whatever the
/// inputs' page codec packs. So everything but the first read of each
/// input (the partition write and re-read, the in-memory test, the runs,
/// merge passes and MPMGJN's sorted copy) is priced at raw density
/// (HeapFile::kRecordsPerPage records per page).
uint64_t EstimateJoinIO(Algorithm alg, const CostInputs& in);

}  // namespace pbitree

#endif  // PBITREE_FRAMEWORK_COST_MODEL_H_
