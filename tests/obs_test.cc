// Tests for the observability layer: the log-bucketed latency histogram
// (bucket round-trip, quantile goldens, exact merge-order invariance,
// concurrent recording), the per-request TraceContext span accounting,
// the bounded worst-K slow-query log, and the Prometheus text builders
// (cumulative monotone buckets, +Inf == count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"

namespace themis::obs {
namespace {

TEST(HistogramTest, BucketIndexRoundTripsRepresentativeValues) {
  // Every value's bucket upper bound must be >= the value (quantiles never
  // under-report) and within the 1/32 relative-error contract.
  std::vector<int64_t> values = {0, 1, 5, 63, 64, 65, 100, 127, 128,
                                 1000, 4095, 4096, 65535, 1 << 20,
                                 (1ll << 31) + 12345, 1ll << 40,
                                 (1ll << 62) - 1};
  for (int64_t v : values) {
    const size_t index = Histogram::BucketIndex(v);
    ASSERT_LT(index, Histogram::kNumBuckets) << v;
    const int64_t upper = Histogram::BucketUpperBound(index);
    EXPECT_GE(upper, v) << "bucket under-covers " << v;
    if (v >= 64) {
      // Relative error bound: upper bound within ~1/32 above the value.
      EXPECT_LE(static_cast<double>(upper - v),
                static_cast<double>(v) / 16.0)
          << "bucket too wide at " << v;
    } else {
      EXPECT_EQ(upper, v) << "sub-64 values are exact";
    }
  }
  // Negative values clamp to bucket 0.
  EXPECT_EQ(Histogram::BucketIndex(-5), 0u);
}

TEST(HistogramTest, BucketUpperBoundsStrictlyIncrease) {
  int64_t prev = -1;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    const int64_t upper = Histogram::BucketUpperBound(i);
    EXPECT_GT(upper, prev) << "bucket " << i;
    prev = upper;
  }
}

TEST(HistogramTest, QuantileGoldens) {
  Histogram h;
  // 1..100 exact-ish values well below the first log range boundary
  // distortion: use sub-64 values where buckets are exact.
  for (int64_t v = 0; v < 64; ++v) h.Record(v);
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 64u);
  EXPECT_EQ(snap.max, 63);
  // Sub-64 buckets are exact, so quantiles are exact order statistics
  // (rank = max(1, q*count + 0.5), value = rank-th smallest, 1-based).
  EXPECT_EQ(snap.Quantile(0.5), 31);   // rank 32 of 0..63
  EXPECT_EQ(snap.Quantile(0.99), 62);  // rank 63 of 0..63
  EXPECT_EQ(snap.Quantile(1.0), 63);
  EXPECT_EQ(snap.Quantile(0.0), 0);

  // At larger magnitudes the quantile reports the bucket upper bound:
  // within 1/16 above the true value, never below it.
  Histogram big;
  for (int64_t v = 1; v <= 1000; ++v) big.Record(v * 1000);  // 1us..1ms
  const Histogram::Snapshot big_snap = big.TakeSnapshot();
  const int64_t p50 = big_snap.Quantile(0.5);
  EXPECT_GE(p50, 500000);
  EXPECT_LE(p50, 500000 + 500000 / 16);
  const int64_t p99 = big_snap.Quantile(0.99);
  EXPECT_GE(p99, 990000);
  EXPECT_LE(p99, 990000 + 990000 / 16);
  // q=1 reports the exact max, not a bucket bound.
  EXPECT_EQ(big_snap.Quantile(1.0), 1000000);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Quantile(0.5), 0);
  EXPECT_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, MergeIsOrderInvariant) {
  // Three snapshots with different shapes; merging in any order must give
  // bitwise-identical state because everything is integer arithmetic.
  std::mt19937_64 rng(42);
  Histogram a, b, c;
  for (int i = 0; i < 10000; ++i) a.Record(static_cast<int64_t>(rng() % 1000));
  for (int i = 0; i < 5000; ++i) {
    b.Record(static_cast<int64_t>(rng() % 10000000));
  }
  for (int i = 0; i < 100; ++i) {
    c.Record(static_cast<int64_t>(rng() % (1ll << 40)));
  }
  const Histogram::Snapshot sa = a.TakeSnapshot();
  const Histogram::Snapshot sb = b.TakeSnapshot();
  const Histogram::Snapshot sc = c.TakeSnapshot();

  Histogram::Snapshot abc = sa;
  abc.Merge(sb);
  abc.Merge(sc);
  Histogram::Snapshot cba = sc;
  cba.Merge(sb);
  cba.Merge(sa);
  Histogram::Snapshot bac = sb;
  bac.Merge(sa);
  bac.Merge(sc);

  EXPECT_EQ(abc.count, cba.count);
  EXPECT_EQ(abc.sum, cba.sum);
  EXPECT_EQ(abc.max, cba.max);
  EXPECT_EQ(abc.buckets, cba.buckets);
  EXPECT_EQ(abc.buckets, bac.buckets);
  EXPECT_EQ(abc.Quantile(0.99), cba.Quantile(0.99));
  EXPECT_EQ(abc.count, 15100u);
}

TEST(HistogramTest, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<int64_t>(t) * 1000 + i % 997);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t n : snap.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(TraceContextTest, SpansAccumulatePerStage) {
  TraceContext trace;
  const int64_t t0 = trace.start_ns();
  trace.RecordSpan(Stage::kParse, t0, t0 + 100);
  trace.RecordSpan(Stage::kExecute, t0 + 200, t0 + 1200);
  trace.RecordSpan(Stage::kExecute, t0 + 1300, t0 + 1800);
  EXPECT_EQ(trace.StageCount(Stage::kParse), 1u);
  EXPECT_EQ(trace.StageTotalNs(Stage::kParse), 100);
  EXPECT_EQ(trace.StageCount(Stage::kExecute), 2u);
  EXPECT_EQ(trace.StageTotalNs(Stage::kExecute), 1500);
  EXPECT_EQ(trace.StageCount(Stage::kSerialize), 0u);

  trace.SetSql("SELECT 1");
  trace.SetPlanInfo("flights", "fp123");
  trace.SetStatus("OK");
  const SlowQueryEntry entry = trace.Finish(2000);
  EXPECT_EQ(entry.sql, "SELECT 1");
  EXPECT_EQ(entry.relation, "flights");
  EXPECT_EQ(entry.fingerprint, "fp123");
  EXPECT_EQ(entry.total_ns, 2000);
  const StageSpan& execute =
      entry.stages[static_cast<size_t>(Stage::kExecute)];
  EXPECT_EQ(execute.count, 2u);
  EXPECT_EQ(execute.total_ns, 1500);
  // Relative begin/end: first execute span begins 200ns in, the last ends
  // 1800ns in — what the span-ordering test asserts over the wire.
  EXPECT_EQ(execute.first_begin_rel_ns, 200);
  EXPECT_EQ(execute.last_end_rel_ns, 1800);
  const StageSpan& serialize =
      entry.stages[static_cast<size_t>(Stage::kSerialize)];
  EXPECT_EQ(serialize.count, 0u);
  EXPECT_EQ(serialize.first_begin_rel_ns, -1);
}

TEST(TraceContextTest, ScopedSpanOnNullTraceIsANoop) {
  // Compiles to a pointer check; must not crash and must not record.
  ScopedSpan span(nullptr, Stage::kExecute);
}

TEST(SlowQueryLogTest, KeepsWorstK) {
  SlowQueryLog log(3);
  for (int64_t ms : {5, 1, 9, 3, 7, 2, 8}) {
    SlowQueryEntry entry;
    entry.sql = "q";
    entry.sql += std::to_string(ms);
    entry.total_ns = ms * 1000000;
    log.Offer(std::move(entry));
  }
  const std::vector<SlowQueryEntry> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].sql, "q9");
  EXPECT_EQ(snapshot[1].sql, "q8");
  EXPECT_EQ(snapshot[2].sql, "q7");

  // A faster entry than the resident minimum is refused.
  SlowQueryEntry fast;
  fast.total_ns = 1;
  EXPECT_FALSE(log.Offer(std::move(fast)));
  EXPECT_EQ(log.Snapshot().size(), 3u);
}

TEST(SlowQueryLogTest, ZeroCapacityAcceptsNothing) {
  SlowQueryLog log(0);
  SlowQueryEntry entry;
  entry.total_ns = 100;
  EXPECT_FALSE(log.Offer(std::move(entry)));
  EXPECT_TRUE(log.Snapshot().empty());
}

/// Parses "name{...le="X"...} value" lines of one histogram family out of
/// an exposition string; returns (le, value) in file order.
std::vector<std::pair<double, double>> ExtractBuckets(
    const std::string& text, const std::string& family) {
  std::vector<std::pair<double, double>> buckets;
  std::istringstream in(text);
  std::string line;
  const std::string prefix = family + "_bucket{";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const size_t le_pos = line.find("le=\"");
    const size_t le_end = line.find('"', le_pos + 4);
    const std::string le_text = line.substr(le_pos + 4, le_end - le_pos - 4);
    const double le = le_text == "+Inf"
                          ? std::numeric_limits<double>::infinity()
                          : std::stod(le_text);
    const double value = std::stod(line.substr(line.rfind(' ') + 1));
    buckets.emplace_back(le, value);
  }
  return buckets;
}

TEST(PromTest, HistogramExpositionIsCumulativeAndMonotone) {
  Histogram h;
  // Latencies across several ladder rungs: 50us, 3ms, 40ms, 2s.
  h.Record(50000);
  h.Record(3000000);
  h.Record(3000000);
  h.Record(40000000);
  h.Record(2000000000);
  std::string out;
  prom::AppendHeader(&out, "x_seconds", "test", "histogram");
  prom::AppendHistogramNs(&out, "x_seconds", {}, h.TakeSnapshot());

  const auto buckets = ExtractBuckets(out, "x_seconds");
  ASSERT_FALSE(buckets.empty());
  // Monotone non-decreasing cumulative counts, le strictly increasing.
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GT(buckets[i].first, buckets[i - 1].first);
    EXPECT_GE(buckets[i].second, buckets[i - 1].second);
  }
  // +Inf present and equal to the count.
  EXPECT_TRUE(std::isinf(buckets.back().first));
  EXPECT_EQ(buckets.back().second, 5.0);
  EXPECT_NE(out.find("x_seconds_count 5"), std::string::npos);
  // The 50us sample must be counted at or below the 1e-4 rung — collapse
  // is conservative (never under-counts a latency at its rung).
  for (const auto& [le, value] : buckets) {
    if (le >= 1e-4 - 1e-12) {
      EXPECT_GE(value, 1.0) << "50us sample missing at le=" << le;
      break;
    }
  }
  // Sum in seconds: 0.00005 + 0.003*2 + 0.04 + 2.0.
  const size_t sum_pos = out.find("x_seconds_sum ");
  ASSERT_NE(sum_pos, std::string::npos);
  const double sum = std::stod(out.substr(sum_pos + 14));
  EXPECT_NEAR(sum, 2.04605, 1e-9);
}

TEST(PromTest, LabelsAndEscaping) {
  std::string out;
  prom::AppendHeader(&out, "x_total", "help text", "counter");
  prom::AppendSample(&out, "x_total", {{"relation", "a\"b\\c\nd"}}, 7);
  EXPECT_NE(out.find("# TYPE x_total counter"), std::string::npos);
  EXPECT_NE(out.find("x_total{relation=\"a\\\"b\\\\c\\nd\"} 7"),
            std::string::npos);
}

}  // namespace
}  // namespace themis::obs
