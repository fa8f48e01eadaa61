#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file histogram.h
/// HDR-style log-bucketed histogram for latency/size distributions. Records
/// values with bounded relative error and answers percentile queries over
/// millions of samples in O(buckets).
///
/// A value lands in one of 96 power-of-two exponents (2^-32 .. 2^64; values
/// outside clamp to the end exponents, non-positive values to the first
/// bucket) and one of 2^(4 * significant_digits) linear sub-buckets within
/// it. Only the exponents between the lowest and highest recorded one are
/// allocated, one block of sub-buckets each, so a latency distribution that
/// spans a few powers of two costs a few KiB rather than the 192 KiB of the
/// full range at two digits.

namespace skyrise {

class Histogram {
 public:
  /// `significant_digits` controls relative precision (1-3 supported).
  explicit Histogram(int significant_digits = 2);

  void Record(double value);
  void RecordN(double value, int64_t count);

  int64_t count() const { return count_; }
  double min() const;
  double max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double sum() const { return sum_; }

  /// Value at percentile p in [0, 100].
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  /// Standard deviation of recorded values (approximate, bucket midpoints).
  double StdDev() const;
  /// Coefficient of variation in percent: 100 * stddev / mean.
  double CoV() const;

  void Merge(const Histogram& other);
  void Reset();

  /// Exponent blocks allocated: those from the lowest to the highest
  /// recorded exponent.
  int exponent_blocks() const {
    return static_cast<int>(buckets_.size() >> sub_bucket_bits_);
  }

  /// One-line summary: count, mean, p50/p95/p99/max.
  std::string Summary(const std::string& unit = "") const;

 private:
  /// Index over the whole exponent range: exponent << sub_bucket_bits_ plus
  /// the sub-bucket.
  size_t BucketIndex(double value) const;
  double BucketMid(size_t index) const;
  /// Whole-range index of `buckets_[0]`.
  size_t Offset() const;
  /// Grows `buckets_` at whichever end `exponent` lies beyond.
  void Cover(int exponent);

  int sub_bucket_bits_;  ///< log2 of sub-buckets per power of two.
  int first_exponent_ = 0;  ///< Exponent of the first block in `buckets_`.
  /// Blocks of 2^sub_bucket_bits_ counts for consecutive exponents from
  /// `first_exponent_`; empty until the first value is recorded.
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
  bool has_values_ = false;
};

}  // namespace skyrise
