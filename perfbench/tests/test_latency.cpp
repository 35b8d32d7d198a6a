// Unit tests for the benchmark's own statistics (src/latency.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "latency.hpp"

namespace perfbench {
namespace {

TEST(LatencyHistogram, BucketsCoverEveryValueWithBoundedWidth) {
  for (std::uint64_t v : {0ull, 1ull, 63ull, 64ull, 65ull, 127ull, 128ull,
                          1000ull, 46'123ull, 999'999'999ull}) {
    const std::size_t b = LatencyHistogram::bucket_of(v);
    const std::uint64_t lo = LatencyHistogram::lower_edge(b);
    const std::uint64_t width = LatencyHistogram::width(b);
    EXPECT_LE(lo, v);
    EXPECT_LT(v, lo + width);
    EXPECT_LE(static_cast<double>(width), std::max(1.0, lo / 64.0));
  }
}

TEST(LatencyHistogram, QuantilesOfUniformSampleAreCloseToExact) {
  LatencyHistogram h;
  std::vector<double> exact;
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<std::uint64_t> dist(10'000, 90'000);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t v = dist(rng);
    h.add(v);
    exact.push_back(static_cast<double>(v));
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    std::vector<double> copy = exact;
    const double want = exact_quantile(copy, q);
    EXPECT_NEAR(h.quantile(q), want, want / 64.0) << "q=" << q;
  }
}

TEST(LatencyHistogram, RefusedRequestsMissEveryLimit) {
  LatencyHistogram h;
  for (int i = 0; i < 80; ++i) h.add(1000);
  h.add_beyond(20);  // refused / unanswered
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.beyond(), 20u);
  EXPECT_LT(h.quantile(0.5), 1020.0);
  EXPECT_LE(h.quantile(0.8), 1016.0);
  // Ranks past the 80 answered samples fall among the refused ones.
  EXPECT_TRUE(std::isinf(h.quantile(0.81)));
  EXPECT_TRUE(std::isinf(h.quantile(0.99)));
  // Among answered requests alone every rank has a value.
  EXPECT_LT(h.answered_quantile(0.99), 1016.0);
}

TEST(LatencyHistogram, SamplesAboveRangeCountAsBeyondNotAsValues) {
  LatencyHistogram h(1'000'000);
  for (int i = 0; i < 9; ++i) h.add(500);
  h.add(5'000'000);  // above max_ns
  EXPECT_EQ(h.beyond(), 1u);
  EXPECT_EQ(h.finite_count(), 9u);
  EXPECT_EQ(h.max_ns(), 500u);
  EXPECT_TRUE(std::isinf(h.quantile(0.95)));
  EXPECT_LT(h.quantile(0.9), 510.0);
}

TEST(LatencyHistogram, InterpolatesWithinBucketsSoNearbyRunsDiffer) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 1000; ++i) a.add(46'000 + (i % 100));
  for (int i = 0; i < 1000; ++i) b.add(46'000 + (i % 100) + (i % 2));
  EXPECT_NE(a.quantile(0.5), b.quantile(0.5));
}

TEST(LatencyHistogram, EmptyHistogramReportsZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(ExactQuantile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 1.0), 4.0);
  std::vector<double> empty;
  EXPECT_EQ(exact_quantile(empty, 0.5), 0.0);
}

TEST(LegSum, SharesOfTheEndToEndFigure) {
  EXPECT_DOUBLE_EQ(leg_sum_share({17, 9, 17}, 43), 1.0);
  EXPECT_NEAR(leg_sum_share({17, 9, 17}, 46), 0.935, 1e-3);
  EXPECT_EQ(leg_sum_share({1, 2}, 0), 0.0);
}

// A request's latency is the sum of three independent legs; the legs'
// p50s add up to the end-to-end p50 within the 15% the traced run checks.
TEST(LegSum, IndependentLegMediansAddUpToTheEndToEndMedian) {
  std::mt19937_64 rng(11);
  std::gamma_distribution<double> in(8.0, 17'000.0 / 8.0);
  std::gamma_distribution<double> res(4.0, 9'000.0 / 4.0);
  std::gamma_distribution<double> out(8.0, 17'000.0 / 8.0);
  LatencyHistogram h_in, h_res, h_out, h_total;
  for (int i = 0; i < 200'000; ++i) {
    const auto a = static_cast<std::uint64_t>(in(rng));
    const auto b = static_cast<std::uint64_t>(res(rng));
    const auto c = static_cast<std::uint64_t>(out(rng));
    h_in.add(a);
    h_res.add(b);
    h_out.add(c);
    h_total.add(a + b + c);
  }
  const double share =
      leg_sum_share({h_in.quantile(0.5), h_res.quantile(0.5),
                     h_out.quantile(0.5)},
                    h_total.quantile(0.5));
  EXPECT_GT(share, 0.85);
  EXPECT_LT(share, 1.15);
}

}  // namespace
}  // namespace perfbench
