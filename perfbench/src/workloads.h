// The three perfbench workloads behind one interface. main.cc sets a
// workload up several times, measures it, verifies its
// outputs and turns the measurements into end-to-end and per-layer
// metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "framework/planner.h"
#include "framework/runner.h"
#include "harness.h"
#include "obs/metrics.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;    // empty per-run directory for database files
  std::string trace_out;  // JSONL span file written at exit ("" = none)
  double scale = 1.0;     // multiplies every data size (tests shrink it)
};

/// What one timed phase observed. Latencies are raw per-request
/// samples in milliseconds.
struct PhaseResult {
  double wall_s = 0.0;
  std::vector<double> query_ms;
  std::vector<double> hit_ms;     // served replays of a cached result
  std::vector<double> miss_ms;    // served joins that executed
  std::vector<double> update_ms;  // from due time to committed reply
  // Rates of each round of identical work (closed-loop workloads); when
  // present, the reported rates are their medians, which a burst of
  // interference from outside the process cannot move.
  std::vector<double> round_queries_per_s;
  std::vector<double> round_pairs_per_s;
  uint64_t queries = 0;
  uint64_t pairs = 0;
  uint64_t pages = 0;  // page reads + writes charged to the queries
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double bytes_per_element = 0.0;
  Report layer;  // per-layer metrics of this phase
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One complete set-up under `dir` — generate, binarize, store,
  /// open/recover and warm — replacing any earlier set-up's state.
  virtual Status Setup(const std::string& dir, Tracer* tracer) = 0;

  /// Runs the timed loop for about `seconds`.
  virtual Status Measure(double seconds, Tracer* tracer, PhaseResult* out) = 0;

  /// Correctness gates outside the timed window; may add per-layer
  /// metrics that need a reference run. Non-OK fails the benchmark.
  virtual Status Verify(Report* layer) = 0;

  /// Releases servers, stores and files.
  virtual Status Teardown() = 0;

  /// The configuration every number is attributable to.
  virtual std::vector<std::pair<std::string, std::string>> Environment()
      const = 0;
};

std::unique_ptr<Workload> MakePaperDirect(const Config& cfg);
std::unique_ptr<Workload> MakeServedMixed(const Config& cfg);
std::unique_ptr<Workload> MakeShardedParallel(const Config& cfg);

/// Per-layer metrics of the storage, exec, join, sort and index layers
/// from the summed obs deltas of `queries` joins whose wall times sum
/// to `wall_ms`. `index_build_ms` comes from JoinStats (the runner
/// times index builds outside the obs phases).
void AddEngineLayers(const pbitree::obs::MetricsSnapshot& m, uint64_t queries,
                     double wall_ms, double index_build_ms, Report* layer);

/// The queries of a closed-loop workload, numbered 0..count-1.
struct RoundQueries {
  size_t count = 0;
  /// Plans query i; timed as framework.plan_us in a ChooseAlgorithm span.
  std::function<pbitree::Algorithm(size_t i)> plan;
  /// Runs query i into `sink`; its time is the query's latency.
  std::function<pbitree::StatusOr<pbitree::RunResult>(
      size_t i, uint64_t qid, Tracer* tracer, pbitree::ResultSink* sink)>
      run;
  /// Called after a successful run, outside the timed window, with the
  /// digest of its pairs.
  std::function<void(size_t i, uint64_t qid, Tracer* tracer,
                     const PairDigest& digest)>
      done;
  /// Names query i in failure messages.
  std::function<std::string(size_t i)> name;
};

/// Runs whole rounds of every query, each round in an order shuffled
/// with `rng`, until `seconds` have passed. Fills `out` with the raw
/// latencies, the per-round rates, the page and pair totals, and the
/// engine-layer metrics (AddEngineLayers) plus framework.plan_us.
void RunRounds(double seconds, const RoundQueries& queries, pbitree::Random* rng,
               Tracer* tracer, PhaseResult* out);

/// "AVX2" when the SIMD kernels run their AVX2 bodies, else "scalar".
std::string SimdDispatch();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
