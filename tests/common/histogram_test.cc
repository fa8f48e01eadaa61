#include "common/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/random.h"

namespace skyrise {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(42.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
  EXPECT_NEAR(h.Percentile(50), 42.0, 42.0 * 0.05);
  EXPECT_DOUBLE_EQ(h.min(), 42.0);
  EXPECT_DOUBLE_EQ(h.max(), 42.0);
}

TEST(HistogramTest, ExactMinMaxMeanTracked) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 10.0}) h.Record(v);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(HistogramTest, PercentilesWithinRelativeError) {
  Histogram h(2);
  for (int i = 1; i <= 10000; ++i) h.Record(static_cast<double>(i));
  EXPECT_NEAR(h.Percentile(50), 5000, 5000 * 0.02);
  EXPECT_NEAR(h.Percentile(95), 9500, 9500 * 0.02);
  EXPECT_NEAR(h.Percentile(99), 9900, 9900 * 0.02);
  EXPECT_NEAR(h.Percentile(100), 10000, 1e-9);  // Clamped to true max.
}

TEST(HistogramTest, SubUnitValues) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(0.001 * (i + 1));
  EXPECT_NEAR(h.Percentile(50), 0.5, 0.5 * 0.05);
}

TEST(HistogramTest, HeavyTailPreserved) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    h.Record(rng.LognormalMedianSigma(27.0, 0.6));
  }
  // One extreme outlier, like the paper's 10s S3 tail request.
  h.Record(10000.0);
  EXPECT_NEAR(h.Percentile(50), 27.0, 27.0 * 0.08);
  EXPECT_DOUBLE_EQ(h.max(), 10000.0);
  EXPECT_GT(h.Percentile(99.999), 100.0);
}

TEST(HistogramTest, StdDevAndCoV) {
  Histogram h;
  for (double v : {10.0, 10.0, 10.0, 10.0}) h.Record(v);
  EXPECT_NEAR(h.StdDev(), 0.0, 1e-9);
  EXPECT_NEAR(h.CoV(), 0.0, 1e-9);
  Histogram g;
  g.Record(5.0);
  g.Record(15.0);
  EXPECT_NEAR(g.StdDev(), 5.0, 1e-9);
  EXPECT_NEAR(g.CoV(), 50.0, 1e-9);
}

TEST(HistogramTest, MergeCombinesDistributions) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(1.0);
  for (int i = 0; i < 100; ++i) b.Record(100.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  EXPECT_NEAR(a.Percentile(25), 1.0, 0.05);
  EXPECT_NEAR(a.Percentile(75), 100.0, 5.0);
}

TEST(HistogramTest, RecordNWeightsValues) {
  Histogram h;
  h.RecordN(5.0, 1000);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
}

TEST(HistogramTest, ResetClearsState) {
  Histogram h;
  h.Record(7.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(HistogramTest, SummaryContainsCount) {
  Histogram h;
  h.Record(1.0);
  const std::string s = h.Summary("ms");
  EXPECT_NE(s.find("n=1"), std::string::npos);
  EXPECT_NE(s.find("ms"), std::string::npos);
}

/// Non-positive, sub-unit, sub-2^-32 and above-2^64 values plus 1 ms-10 s
/// latencies (in seconds). The values above 2^64 dominate the sums: the
/// rest add up to less than half their ulp, so every recording order rounds
/// to the same sum and sum of squares.
std::vector<double> EdgeAndLatencyValues() {
  std::vector<double> values = {
      0.0, -5.0, -0.25,             // Non-positive.
      0.5, 0.75, 0.3,               // Sub-unit.
      1e-12, std::ldexp(1.0, -40),  // Below 2^-32.
      1.5 * std::ldexp(1.0, 64), 1.25 * std::ldexp(1.0, 66),
      std::ldexp(1.0, 70)};  // Above 2^64.
  for (int i = 0; i < 200; ++i) {
    values.push_back(0.001 * std::pow(10.0, 4.0 * i / 199));
    if (i % 7 == 0) values.push_back(values.back());  // Repeats.
  }
  return values;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameDistribution(const Histogram& got, const Histogram& want) {
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(Bits(got.min()), Bits(want.min()));
  EXPECT_EQ(Bits(got.max()), Bits(want.max()));
  EXPECT_EQ(Bits(got.mean()), Bits(want.mean()));
  EXPECT_EQ(Bits(got.StdDev()), Bits(want.StdDev()));
  for (double p : {0.0, 0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(Bits(got.Percentile(p)), Bits(want.Percentile(p))) << "p" << p;
  }
}

TEST(HistogramTest, OrderMergeAndResetGiveBitIdenticalPercentiles) {
  std::vector<double> values = EdgeAndLatencyValues();
  std::sort(values.begin(), values.end());
  Histogram ascending;
  for (double v : values) ascending.Record(v);

  // Golden percentiles, computed with all 96 exponent blocks allocated: a
  // histogram that allocates only the recorded ones must match them bit
  // for bit.
  const std::vector<std::pair<double, double>> dense = {
      {0.0, 0x1.008p-32},  {0.1, 0x1.008p-32},  {1.0, 0x1.008p-32},
      {25.0, 0x1.208p-7},  {50.0, 0x1.908p-4},  {90.0, 0x1.168p+2},
      {99.0, 0x1.008p+63}, {99.9, 0x1.808p+63}, {100.0, 0x1.808p+63}};
  for (const auto& [p, want] : dense) {
    EXPECT_EQ(Bits(ascending.Percentile(p)), Bits(want)) << "p" << p;
  }

  Histogram descending;
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    descending.Record(*it);
  }
  ExpectSameDistribution(descending, ascending);

  // A stride coprime with the count visits the values out of order.
  Histogram strided;
  const size_t n = values.size();
  ASSERT_NE(n % 7919, 0u);
  for (size_t i = 0; i < n; ++i) strided.Record(values[i * 7919 % n]);
  ExpectSameDistribution(strided, ascending);

  // Two halves with disjoint exponent ranges, merged in both directions.
  Histogram low, high;
  for (double v : values) (v < 0.125 ? low : high).Record(v);
  Histogram low_then_high = low;
  low_then_high.Merge(high);
  ExpectSameDistribution(low_then_high, ascending);
  Histogram high_then_low = high;
  high_then_low.Merge(low);
  ExpectSameDistribution(high_then_low, ascending);

  Histogram into_empty;
  into_empty.Merge(ascending);
  ExpectSameDistribution(into_empty, ascending);
  Histogram from_empty = ascending;
  from_empty.Merge(Histogram());
  ExpectSameDistribution(from_empty, ascending);

  Histogram reused = high;
  reused.Reset();
  for (double v : values) reused.Record(v);
  ExpectSameDistribution(reused, ascending);
}

TEST(HistogramTest, LatenciesAllocateOnlyTheirExponents) {
  Histogram h;
  EXPECT_EQ(h.exponent_blocks(), 0);
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    h.Record(std::clamp(rng.LognormalMedianSigma(40.0, 1.5), 1.0, 10000.0));
  }
  h.Record(1.0);
  h.Record(10000.0);
  EXPECT_LE(h.exponent_blocks(), 15);
  h.Reset();
  EXPECT_EQ(h.exponent_blocks(), 0);
}

TEST(HistogramTest, ZeroAndNegativeGoToFirstBucket) {
  // The histogram targets non-negative metrics; non-positive values land in
  // the first bucket and percentiles clamp to the observed range.
  Histogram h;
  h.Record(0.0);
  h.Record(-5.0);
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_GE(h.Percentile(50), -5.0);
  EXPECT_LE(h.Percentile(50), 0.0);
}

}  // namespace
}  // namespace skyrise
