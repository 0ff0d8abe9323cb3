// Helpers shared by the perfbench workloads: an order-insensitive pair
// digest, raw-sample quantiles, a Zipf sampler, an open-loop schedule,
// an in-memory span tracer and the metric report perfbench prints.
//
// Everything here sits outside the library: the workloads call the
// library's public API and wrap each call in a span of their own.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "join/result_sink.h"
#include "obs/metrics.h"

namespace perfbench {

using pbitree::Status;

// ---------------------------------------------------------------------
// Correctness: order-insensitive digest of a join's pair multiset.

struct PairDigest {
  uint64_t count = 0;
  uint64_t sum = 0;  // sum of per-pair hashes (catches duplicates)
  uint64_t xr = 0;   // xor of per-pair hashes

  friend bool operator==(const PairDigest&, const PairDigest&) = default;
  std::string ToString() const;
};

/// Sink that folds every pair into a PairDigest. Two runs producing the
/// same multiset of pairs, in any order, produce equal digests.
class ChecksumSink : public pbitree::ResultSink {
 public:
  Status OnPair(pbitree::Code a, pbitree::Code d) override;
  Status OnBatch(std::span<const pbitree::ResultPair> pairs) override;

  PairDigest digest() const { return {count_, sum_, xr_}; }

 private:
  uint64_t sum_ = 0;
  uint64_t xr_ = 0;
};

// ---------------------------------------------------------------------
// Quantiles from raw samples.

/// The highest percentile level (at most 0.99) that leaves at least
/// `beyond` samples above it out of `n`; 0.5 when even the median has
/// fewer than `beyond` samples beyond it.
double TailLevel(size_t n, size_t beyond = 10);

/// Nearest-rank quantile of `samples` (sorted in place). 0 when empty.
double Quantile(std::vector<double>* samples, double q);

struct Dist {
  size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double tail = 0.0;        // value at tail_level
  double tail_level = 0.5;  // TailLevel(n)
};

Dist Summarize(std::vector<double> samples);

// ---------------------------------------------------------------------
// Load generation.

/// Zipf(s) over ranks 0..n-1 (rank 0 most likely), sampled by inverting
/// the cumulative weights with a caller-supplied uniform in [0, 1).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(double uniform01) const;

 private:
  std::vector<double> cdf_;
};

/// Open-loop schedule: request i is due at start + i * period, whether
/// or not earlier requests have finished.
class OpenLoopSchedule {
 public:
  using Clock = std::chrono::steady_clock;

  OpenLoopSchedule(Clock::time_point start, double rate_per_s);

  Clock::time_point Due(uint64_t i) const;
  /// Milliseconds by which `actual` trails request i's due time (0 when
  /// it ran early or on time).
  double LateMs(uint64_t i, Clock::time_point actual) const;

 private:
  Clock::time_point start_;
  Clock::duration period_;
};

/// Stop flag a worker can sleep on until a deadline; Stop() wakes it.
class StopSignal {
 public:
  /// Sleeps until `t` or Stop(); true when stopped.
  bool WaitUntil(std::chrono::steady_clock::time_point t);
  void Stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
};

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written out at the end of the run.

struct SpanRecord {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index into the span list, -1 for roots
  uint64_t query_id = 0;
};

struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  // total minus the time covered by child spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span; the parent is the innermost open span of this thread.
  /// Inert (no clock reads, no allocation) when the tracer is disabled
  /// or null.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t query_id = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int64_t index_ = -1;
    int64_t prev_ = -1;
  };

  std::vector<SpanRecord> Spans() const;
  /// Per span name: count, total and self time.
  std::map<std::string, SpanTotals> Totals() const;
  /// Writes one JSON object per span, tagged with `phase`.
  Status WriteJsonl(const std::string& path, const char* phase,
                    bool append) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Per-name totals of a span list (see Tracer::Totals).
std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count, percentile level, base of a ratio
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Adds "<name>_p50" and "<name>_p99" (tail level per TailLevel).
  void AddDist(const std::string& name, const Dist& d, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Adds `delta` into `*sum`: counters, phase totals and histograms add,
/// gauges and phase maxima take the max.
void Accumulate(pbitree::obs::MetricsSnapshot* sum,
                const pbitree::obs::MetricsSnapshot& delta);

double PhaseMs(const pbitree::obs::MetricsSnapshot& m, pbitree::obs::Phase p);
double LatencyTotalMs(const pbitree::obs::MetricsSnapshot& m,
                      pbitree::obs::Latency l);
/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

double NowSeconds();

/// JSON string literal of `s` (quotes and escapes).
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
