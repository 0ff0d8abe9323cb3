// Unit tests of the perfbench helpers: pair digest, quantile rule, Zipf
// sampler, open-loop schedule, stop signal and span tracer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

using pbitree::ResultPair;

PairDigest DigestOf(const std::vector<ResultPair>& pairs, bool batched) {
  ChecksumSink sink;
  if (batched) {
    EXPECT_TRUE(sink.OnBatch(pairs).ok());
  } else {
    for (const ResultPair& p : pairs) {
      EXPECT_TRUE(sink.OnPair(p.ancestor_code, p.descendant_code).ok());
    }
  }
  return sink.digest();
}

TEST(ChecksumSinkTest, IgnoresOrderButNotContent) {
  std::vector<ResultPair> pairs = {{8, 3}, {8, 5}, {12, 9}, {4, 1}};
  const PairDigest base = DigestOf(pairs, true);
  EXPECT_EQ(base.count, 4u);

  std::vector<ResultPair> shuffled = {{12, 9}, {4, 1}, {8, 5}, {8, 3}};
  EXPECT_EQ(DigestOf(shuffled, true), base);
  EXPECT_EQ(DigestOf(shuffled, false), base);  // per-pair path agrees

  std::vector<ResultPair> swapped = {{3, 8}, {8, 5}, {12, 9}, {4, 1}};
  EXPECT_FALSE(DigestOf(swapped, true) == base);

  std::vector<ResultPair> duplicated = pairs;
  duplicated.push_back({8, 3});
  const PairDigest dup = DigestOf(duplicated, true);
  EXPECT_FALSE(dup == base);
  // A pair emitted twice in place of another pair leaves the xor of an
  // even multiset unchanged; the sum still tells them apart.
  std::vector<ResultPair> twice = {{8, 3}, {8, 3}, {12, 9}, {12, 9}};
  std::vector<ResultPair> other = {{8, 5}, {8, 5}, {4, 1}, {4, 1}};
  EXPECT_EQ(DigestOf(twice, true).xr, DigestOf(other, true).xr);
  EXPECT_FALSE(DigestOf(twice, true) == DigestOf(other, true));
}

TEST(ChecksumSinkTest, EmptyStreamIsZero) {
  EXPECT_EQ(DigestOf({}, true), PairDigest{});
}

TEST(QuantileTest, TailLevelKeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailLevel(5000), 0.99);
  EXPECT_DOUBLE_EQ(TailLevel(1000), 0.99);
  EXPECT_DOUBLE_EQ(TailLevel(500), 0.98);
  EXPECT_DOUBLE_EQ(TailLevel(100), 0.90);
  EXPECT_DOUBLE_EQ(TailLevel(20), 0.5);
  EXPECT_DOUBLE_EQ(TailLevel(10), 0.5);
  EXPECT_DOUBLE_EQ(TailLevel(0), 0.5);
  // From n = 20 on, the reported level leaves at least ten samples
  // above its nearest-rank position.
  for (size_t n : {20u, 40u, 137u, 999u, 2500u}) {
    const double level = TailLevel(n);
    const double rank = std::ceil(level * static_cast<double>(n) - 1e-9);
    EXPECT_GE(static_cast<double>(n) - rank, 10.0) << n;
  }
}

TEST(QuantileTest, NearestRankOnRawSamples) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Quantile(&v, 0.5), 50);
  EXPECT_DOUBLE_EQ(Quantile(&v, 0.99), 99);
  EXPECT_DOUBLE_EQ(Quantile(&v, 1.0), 100);
  EXPECT_DOUBLE_EQ(Quantile(&v, 0.0), 1);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(Quantile(&empty, 0.5), 0.0);

  // Not a power of two: raw samples, not log2 buckets.
  const Dist d = Summarize({41.3, 41.7, 41.5, 80.2, 41.6});
  EXPECT_EQ(d.n, 5u);
  EXPECT_DOUBLE_EQ(d.p50, 41.6);
  EXPECT_DOUBLE_EQ(d.tail_level, 0.5);
  EXPECT_NEAR(d.mean, 49.26, 1e-9);
}

TEST(ZipfSamplerTest, MatchesHarmonicWeights) {
  ZipfSampler zipf(10, 1.0);
  double h = 0.0;
  for (int k = 1; k <= 10; ++k) h += 1.0 / k;

  // A uniform grid of inputs lands on rank r in proportion to
  // 1 / ((r + 1) * H_10).
  const int kSteps = 100000;
  std::vector<int> hits(10, 0);
  for (int i = 0; i < kSteps; ++i) {
    ++hits[zipf.Sample((i + 0.5) / kSteps)];
  }
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(hits[r] / static_cast<double>(kSteps),
                1.0 / (static_cast<double>(r + 1) * h), 1e-4);
  }
  EXPECT_EQ(zipf.Sample(0.0), 0u);
  EXPECT_EQ(zipf.Sample(0.9999999), 9u);
}

TEST(OpenLoopScheduleTest, DueTimesIgnoreCompletionAndLatenessIsMeasured) {
  using Clock = OpenLoopSchedule::Clock;
  const Clock::time_point start = Clock::now();
  OpenLoopSchedule s(start, 10.0);
  EXPECT_EQ(s.Due(0), start);
  EXPECT_EQ(s.Due(3) - start, std::chrono::milliseconds(300));
  EXPECT_EQ(s.Due(250) - start, std::chrono::seconds(25));
  EXPECT_DOUBLE_EQ(s.LateMs(2, start + std::chrono::milliseconds(150)), 0.0);
  EXPECT_NEAR(s.LateMs(2, start + std::chrono::milliseconds(245)), 45.0, 1e-9);
}

TEST(StopSignalTest, TimesOutOrWakesOnStop) {
  StopSignal stop;
  const auto soon = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(5);
  EXPECT_FALSE(stop.WaitUntil(soon));
  std::thread t([&] { stop.Stop(); });
  EXPECT_TRUE(stop.WaitUntil(std::chrono::steady_clock::now() +
                             std::chrono::hours(1)));
  t.join();
  // Once stopped, a wait with a future deadline returns at once.
  EXPECT_TRUE(stop.WaitUntil(std::chrono::steady_clock::now() +
                             std::chrono::hours(1)));
}

TEST(TracerTest, RecordsParentsAndQueryIds) {
  Tracer tracer(true);
  {
    Tracer::Span q(&tracer, "query", 7);
    { Tracer::Span a(&tracer, "RunJoin", 7); }
    { Tracer::Span b(&tracer, "ChooseAlgorithm", 7); }
  }
  { Tracer::Span other(&tracer, "query", 8); }
  const std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_EQ(spans[1].query_id, 7u);
  EXPECT_EQ(spans[3].query_id, 8u);
  for (const SpanRecord& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { Tracer::Span s(&tracer, "query", 1); }
  { Tracer::Span s(nullptr, "query", 1); }
  EXPECT_TRUE(tracer.Spans().empty());
}

TEST(TracerTest, SelfTimeSubtractsTheUnionOfChildren) {
  // parent [0, 100); children [10, 40) and [30, 60) overlap -> 50 covered;
  // grandchild [15, 20) only reduces its own parent's self time.
  std::vector<SpanRecord> spans = {
      {"parent", 0, 100'000'000, -1, 1},
      {"child", 10'000'000, 40'000'000, 0, 1},
      {"child", 30'000'000, 60'000'000, 0, 1},
      {"grandchild", 15'000'000, 20'000'000, 1, 1},
  };
  auto totals = SummarizeSpans(spans);
  EXPECT_EQ(totals["parent"].count, 1u);
  EXPECT_DOUBLE_EQ(totals["parent"].total_ms, 100.0);
  EXPECT_DOUBLE_EQ(totals["parent"].self_ms, 50.0);
  EXPECT_EQ(totals["child"].count, 2u);
  EXPECT_DOUBLE_EQ(totals["child"].total_ms, 60.0);
  EXPECT_DOUBLE_EQ(totals["child"].self_ms, 55.0);
  EXPECT_DOUBLE_EQ(totals["grandchild"].self_ms, 5.0);
}

TEST(AccumulateTest, AddsCountersAndMaxesGauges) {
  namespace obs = pbitree::obs;
  obs::MetricsSnapshot sum, a, b;
  a.counters[static_cast<size_t>(obs::Counter::kPageReads)] = 5;
  b.counters[static_cast<size_t>(obs::Counter::kPageReads)] = 7;
  a.gauges[static_cast<size_t>(obs::Gauge::kPoolQueueDepth)] = 9;
  b.gauges[static_cast<size_t>(obs::Gauge::kPoolQueueDepth)] = 4;
  a.phases[static_cast<size_t>(obs::Phase::kSort)].total_nanos = 2'000'000;
  b.phases[static_cast<size_t>(obs::Phase::kSort)].total_nanos = 1'000'000;
  Accumulate(&sum, a);
  Accumulate(&sum, b);
  EXPECT_EQ(sum.counter(obs::Counter::kPageReads), 12u);
  EXPECT_EQ(sum.gauge(obs::Gauge::kPoolQueueDepth), 9u);
  EXPECT_DOUBLE_EQ(PhaseMs(sum, obs::Phase::kSort), 3.0);
}

TEST(ReportTest, DistAddsMedianAndTailWithSampleCounts) {
  Report r;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  r.AddDist("query_ms", Summarize(v), "ms");
  ASSERT_EQ(r.metrics().size(), 2u);
  EXPECT_EQ(r.metrics()[0].name, "query_ms_p50");
  EXPECT_DOUBLE_EQ(r.metrics()[0].value, 500);
  EXPECT_EQ(r.metrics()[1].name, "query_ms_p99");
  EXPECT_DOUBLE_EQ(r.metrics()[1].value, 990);
  EXPECT_NE(r.metrics()[1].note.find("n=1000"), std::string::npos);
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

}  // namespace
}  // namespace perfbench
