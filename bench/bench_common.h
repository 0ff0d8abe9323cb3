#ifndef PBITREE_BENCH_BENCH_COMMON_H_
#define PBITREE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"

namespace pbitree {
namespace bench {

/// \brief Shared configuration of the experiment drivers.
///
/// Every bench binary reads:
///  - PBITREE_BENCH_SCALE  (default 0.02): multiplies the paper's
///    element counts (L = 10^6 * scale, S = 10^4 * scale). 1.0
///    reproduces the paper's sizes (minutes per table on a laptop).
///  - PBITREE_BENCH_SEED   (default 42).
///  - PBITREE_SIM_IO_MS    (default 1.0): simulated per-page disk
///    latency; reported "time" = wall CPU + latency * page I/O, which
///    reproduces the paper's disk-bound regime machine-independently.
///  - PBITREE_METRICS_JSON (unset by default): path of a JSONL sink —
///    every measured operation appends its full per-operation metrics
///    report (schema-stable; see obs/metrics.h).
///
/// Set knobs are validated: nonsense values (scale <= 0, negative
/// sim_io_ms, unparsable text) abort with the accepted range.
struct BenchConfig {
  double scale = 0.02;
  uint64_t seed = 42;
  double sim_io_ms = 1.0;

  static BenchConfig FromEnv();

  /// The paper's default buffer of 500 pages scaled with the data
  /// (same buffer-to-data ratio), floored for usability.
  size_t DefaultBufferPages() const;
};

/// \brief One in-memory-backed database + buffer pool sized to `pages`.
struct Env {
  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<BufferManager> bm;

  explicit Env(size_t pool_pages);
};

/// Runs one algorithm and returns the measured RunResult (counting
/// sink; results are not materialised).
RunResult MustRun(Algorithm alg, BufferManager* bm, const ElementSet& a,
                  const ElementSet& d, const RunOptions& opts);

/// MIN_RGN convenience (aborts on error).
MinRgnResult MustRunMinRgn(BufferManager* bm, const ElementSet& a,
                           const ElementSet& d, const RunOptions& opts);

/// Improvement ratio of the paper's Figure 6: (T_ref - T_alg) / T_ref.
double ImprovementRatio(double t_ref, double t_alg);

/// Fixed-width table-row printing helpers.
void PrintRule(int width);
void PrintCell(const std::string& s, int width);
std::string FormatSeconds(double s);
std::string FormatRatio(double r);

/// Figure 6(e)/(f) driver: elapsed time vs relative buffer size P for
/// one canonical dataset ("SLLL" or "MLLL"). `partitioned` names the
/// PBiTree algorithm to sweep next to MIN_RGN (SHCJ for single-height,
/// MHCJ+Rollup for multi-height) — VPJ always runs as well.
void RunBufferSweep(const std::string& dataset, Algorithm partitioned);

/// Figure 6(g)/(h) driver: elapsed time vs dataset size (k * 5*10^4 *
/// scale elements, k = 1..8) for MIN_RGN, the horizontal-partitioning
/// algorithm and VPJ.
void RunScalabilitySweep(bool multi_height);

}  // namespace bench
}  // namespace pbitree

#endif  // PBITREE_BENCH_BENCH_COMMON_H_
