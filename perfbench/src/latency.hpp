// Statistics the benchmark computes itself: a log-linear nanosecond
// histogram whose percentiles count refused and unanswered requests as
// missing every limit, exact quantiles of small samples, and the leg-sum
// ratio the traced run reports.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Log-linear histogram over nanoseconds (HDR-style).  Values below
/// 2^kSubBits land in exact unit buckets; above, each power of two splits
/// into 2^kSubBits linear sub-buckets, so a bucket is at most 1/64 of its
/// lower edge wide.  Values above `max_ns`, and requests that were refused
/// or never answered, are counted as "beyond": they take part in every
/// rank, but a percentile whose rank falls among them is +infinity, never
/// a made-up value.
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;

  explicit LatencyHistogram(std::uint64_t max_ns = 10'000'000'000ull)
      : max_ns_(max_ns), counts_(bucket_of(max_ns) + 1, 0) {}

  void add(std::uint64_t ns) {
    if (ns > max_ns_) {
      ++beyond_;
      return;
    }
    ++counts_[bucket_of(ns)];
    ++finite_;
    max_seen_ = std::max(max_seen_, ns);
  }

  /// Count `n` samples that miss every limit (refused, errored, unanswered).
  void add_beyond(std::uint64_t n = 1) { beyond_ += n; }

  std::uint64_t count() const { return finite_ + beyond_; }
  std::uint64_t finite_count() const { return finite_; }
  std::uint64_t beyond() const { return beyond_; }
  /// Largest finite sample; 0 when there is none.
  std::uint64_t max_ns() const { return max_seen_; }

  /// The q-quantile (0 <= q <= 1) in nanoseconds, interpolated linearly
  /// within the bucket that holds rank q * count().  +infinity when that
  /// rank falls among the beyond samples; 0 when the histogram is empty.
  double quantile(double q) const { return rank_value(q, count()); }

  /// The q-quantile of the finite samples alone (answered requests only).
  double answered_quantile(double q) const { return rank_value(q, finite_); }

  static std::size_t bucket_of(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const unsigned e = static_cast<unsigned>(std::bit_width(ns)) - 1;
    const std::uint64_t sub = (ns >> (e - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>((e - kSubBits + 1) * kSub + sub);
  }
  static std::uint64_t lower_edge(std::size_t bucket) {
    if (bucket < kSub) return bucket;
    const unsigned e = static_cast<unsigned>(bucket / kSub) + kSubBits - 1;
    return (kSub + bucket % kSub) << (e - kSubBits);
  }
  static std::uint64_t width(std::size_t bucket) {
    if (bucket < kSub) return 1;
    const unsigned e = static_cast<unsigned>(bucket / kSub) + kSubBits - 1;
    return 1ull << (e - kSubBits);
  }

 private:
  /// The value at rank q * total, where samples past the finite ones are
  /// beyond every limit.
  double rank_value(double q, std::uint64_t total) const {
    if (total == 0) return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
    if (rank > static_cast<double>(finite_)) {
      return std::numeric_limits<double>::infinity();
    }
    double before = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (before + c >= rank) {
        const double frac = std::max(0.0, rank - before) / c;
        return static_cast<double>(lower_edge(i)) +
               frac * static_cast<double>(width(i));
      }
      before += c;
    }
    return static_cast<double>(max_seen_);
  }

  std::uint64_t max_ns_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t finite_ = 0;
  std::uint64_t beyond_ = 0;
  std::uint64_t max_seen_ = 0;
};

/// Exact q-quantile of a sample, interpolating between order statistics
/// (the "linear" rule, h = (n - 1) q).  Sorts `values`; 0 when empty.
inline double exact_quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Sum of the legs' values divided by the end-to-end value: how much of
/// the end-to-end figure the traced legs account for (1.0 = all of it).
/// 0 when `total` is not positive.
inline double leg_sum_share(const std::vector<double>& legs, double total) {
  if (!(total > 0.0)) return 0.0;
  double sum = 0.0;
  for (const double leg : legs) sum += leg;
  return sum / total;
}

}  // namespace perfbench
