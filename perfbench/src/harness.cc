#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace obs = pbitree::obs;

std::string PairDigest::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "n=%llu sum=%016llx xor=%016llx",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(xr));
  return buf;
}

namespace {

// splitmix64 finaliser over a pair-dependent seed: the order of the
// pair's components matters, the order of pairs in a stream does not.
uint64_t PairHash(pbitree::Code a, pbitree::Code d) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + (d ^ 0xD1B54A32D192ED03ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Status ChecksumSink::OnPair(pbitree::Code a, pbitree::Code d) {
  const uint64_t h = PairHash(a, d);
  sum_ += h;
  xr_ ^= h;
  ++count_;
  return Status::OK();
}

Status ChecksumSink::OnBatch(std::span<const pbitree::ResultPair> pairs) {
  for (const pbitree::ResultPair& p : pairs) {
    const uint64_t h = PairHash(p.ancestor_code, p.descendant_code);
    sum_ += h;
    xr_ ^= h;
  }
  count_ += pairs.size();
  return Status::OK();
}

double TailLevel(size_t n, size_t beyond) {
  if (n <= beyond) return 0.5;
  const double level = 1.0 - static_cast<double>(beyond) / static_cast<double>(n);
  return std::clamp(level, 0.5, 0.99);
}

double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const double rank = std::ceil(q * static_cast<double>(samples->size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return (*samples)[std::min(idx, samples->size() - 1)];
}

Dist Summarize(std::vector<double> samples) {
  Dist d;
  d.n = samples.size();
  if (d.n == 0) return d;
  double total = 0.0;
  for (double v : samples) total += v;
  d.mean = total / static_cast<double>(d.n);
  d.p50 = Quantile(&samples, 0.5);
  d.tail_level = TailLevel(d.n);
  d.tail = Quantile(&samples, d.tail_level);
  return d;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  double total = 0.0;
  for (size_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(double uniform01) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), uniform01);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

OpenLoopSchedule::OpenLoopSchedule(Clock::time_point start, double rate_per_s)
    : start_(start),
      period_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / rate_per_s))) {}

OpenLoopSchedule::Clock::time_point OpenLoopSchedule::Due(uint64_t i) const {
  return start_ + period_ * static_cast<int64_t>(i);
}

double OpenLoopSchedule::LateMs(uint64_t i, Clock::time_point actual) const {
  const auto late = actual - Due(i);
  if (late <= Clock::duration::zero()) return 0.0;
  return std::chrono::duration<double, std::milli>(late).count();
}

bool StopSignal::WaitUntil(std::chrono::steady_clock::time_point t) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_until(lock, t, [this] { return stopped_; });
}

void StopSignal::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
}

namespace {
// Innermost open span of this thread (index into the active tracer).
thread_local int64_t tl_open_span = -1;
}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t query_id) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  prev_ = tl_open_span;
  SpanRecord rec;
  rec.name = name;
  rec.parent = prev_;
  rec.query_id = query_id;
  rec.start_ns = obs::NowNanos();
  std::lock_guard<std::mutex> lock(tracer->mu_);
  index_ = static_cast<int64_t>(tracer->spans_.size());
  tracer->spans_.push_back(std::move(rec));
  tl_open_span = index_;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const uint64_t end = obs::NowNanos();
  tl_open_span = prev_;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = end;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  return SummarizeSpans(Spans());
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  // Children of each span, to subtract the union of their intervals.
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (size_t c : children[i]) {
      const uint64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const uint64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0, cur_hi = 0;
    for (const auto& [lo, hi] : iv) {
      if (cur_hi <= lo) {
        covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    covered += cur_hi - cur_lo;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
  }
  return out;
}

Status Tracer::WriteJsonl(const std::string& path, const char* phase,
                          bool append) const {
  std::vector<SpanRecord> spans = Spans();
  std::FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
  if (f == nullptr) return Status::IOError("cannot write trace " + path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"phase\":%s,\"id\":%zu,\"name\":%s,\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%lld,\"query\":%llu}\n",
                 JsonString(phase).c_str(), i, JsonString(s.name).c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.query_id));
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IOError("cannot write trace " + path);
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  metrics_.push_back({name, value, unit, note});
}

void Report::AddDist(const std::string& name, const Dist& d,
                     const std::string& unit) {
  char note[64];
  std::snprintf(note, sizeof(note), "n=%zu", d.n);
  Add(name + "_p50", d.p50, unit, note);
  std::snprintf(note, sizeof(note), "n=%zu level=p%.3g", d.n,
                d.tail_level * 100.0);
  Add(name + "_p99", d.tail, unit, note);
}

void Accumulate(obs::MetricsSnapshot* sum, const obs::MetricsSnapshot& delta) {
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    sum->counters[i] += delta.counters[i];
  }
  for (size_t i = 0; i < obs::kNumGauges; ++i) {
    sum->gauges[i] = std::max(sum->gauges[i], delta.gauges[i]);
  }
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    sum->phases[i].count += delta.phases[i].count;
    sum->phases[i].total_nanos += delta.phases[i].total_nanos;
    sum->phases[i].max_nanos =
        std::max(sum->phases[i].max_nanos, delta.phases[i].max_nanos);
  }
  for (size_t i = 0; i < obs::kNumLatencies; ++i) {
    sum->latencies[i].count += delta.latencies[i].count;
    sum->latencies[i].total_nanos += delta.latencies[i].total_nanos;
    for (size_t b = 0; b < obs::kHistBuckets; ++b) {
      sum->latencies[i].buckets[b] += delta.latencies[i].buckets[b];
    }
  }
}

double PhaseMs(const obs::MetricsSnapshot& m, obs::Phase p) {
  return static_cast<double>(m.phase(p).total_nanos) / 1e6;
}

double LatencyTotalMs(const obs::MetricsSnapshot& m, obs::Latency l) {
  return static_cast<double>(m.latencies[static_cast<size_t>(l)].total_nanos) /
         1e6;
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace perfbench
