#include "common/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"

namespace skyrise {

namespace {
// We bucket values by (exponent, mantissa-slice). Exponent e holds
// [2^(e-32), 2^(e-31)); values beyond either end clamp into the end ones.
constexpr int kExponentRange = 96;  // Covers 2^-32 .. 2^64.
constexpr int kExponentBias = 32;
}  // namespace

Histogram::Histogram(int significant_digits) {
  SKYRISE_CHECK(significant_digits >= 1 && significant_digits <= 3);
  // ~3.3 bits per decimal digit of relative precision.
  sub_bucket_bits_ = significant_digits * 4;
}

size_t Histogram::BucketIndex(double value) const {
  if (value <= 0) return 0;
  int exp = 0;
  const double mant = std::frexp(value, &exp);  // mant in [0.5, 1).
  int e = exp + kExponentBias - 1;
  e = std::clamp(e, 0, kExponentRange - 1);
  const int sub_buckets = 1 << sub_bucket_bits_;
  int sub = static_cast<int>((mant - 0.5) * 2.0 * sub_buckets);
  sub = std::clamp(sub, 0, sub_buckets - 1);
  return (static_cast<size_t>(e) << sub_bucket_bits_) + static_cast<size_t>(sub);
}

double Histogram::BucketMid(size_t index) const {
  const int sub_buckets = 1 << sub_bucket_bits_;
  const int e = static_cast<int>(index >> sub_bucket_bits_) - kExponentBias + 1;
  const int sub = static_cast<int>(index & (sub_buckets - 1));
  const double mant = 0.5 + (sub + 0.5) / (2.0 * sub_buckets);
  return std::ldexp(mant, e);
}

size_t Histogram::Offset() const {
  return static_cast<size_t>(first_exponent_) << sub_bucket_bits_;
}

void Histogram::Cover(int exponent) {
  if (buckets_.empty()) first_exponent_ = exponent;
  if (exponent < first_exponent_) {
    buckets_.insert(buckets_.begin(),
                    static_cast<size_t>(first_exponent_ - exponent)
                        << sub_bucket_bits_,
                    0);
    first_exponent_ = exponent;
  } else if (exponent >= first_exponent_ + exponent_blocks()) {
    buckets_.resize(static_cast<size_t>(exponent - first_exponent_ + 1)
                    << sub_bucket_bits_);
  }
}

void Histogram::Record(double value) { RecordN(value, 1); }

void Histogram::RecordN(double value, int64_t count) {
  if (count <= 0) return;
  const size_t index = BucketIndex(value);
  // Wraps past the end for an exponent below the first block.
  if (index - Offset() >= buckets_.size()) {
    Cover(static_cast<int>(index >> sub_bucket_bits_));
  }
  buckets_[index - Offset()] += count;
  count_ += count;
  sum_ += value * count;
  sum_sq_ += value * value * count;
  if (!has_values_) {
    min_ = max_ = value;
    has_values_ = true;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
}

double Histogram::min() const { return has_values_ ? min_ : 0.0; }

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target = std::clamp(p, 0.0, 100.0) / 100.0 *
                        static_cast<double>(count_);
  int64_t acc = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    acc += buckets_[i];
    if (static_cast<double>(acc) >= target && buckets_[i] > 0) {
      // Clamp bucket midpoint to the true observed range.
      return std::clamp(BucketMid(Offset() + i), min_, max_);
    }
  }
  return max_;
}

double Histogram::StdDev() const {
  if (count_ < 2) return 0.0;
  const double mean = sum_ / count_;
  const double var = std::max(0.0, sum_sq_ / count_ - mean * mean);
  return std::sqrt(var);
}

double Histogram::CoV() const {
  const double m = mean();
  return m == 0.0 ? 0.0 : 100.0 * StdDev() / m;
}

void Histogram::Merge(const Histogram& other) {
  SKYRISE_CHECK(sub_bucket_bits_ == other.sub_bucket_bits_);
  if (!other.buckets_.empty()) {
    Cover(other.first_exponent_);
    Cover(other.first_exponent_ + other.exponent_blocks() - 1);
    int64_t* into = buckets_.data() + (other.Offset() - Offset());
    for (size_t i = 0; i < other.buckets_.size(); ++i) {
      into[i] += other.buckets_[i];
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  if (other.has_values_) {
    if (!has_values_) {
      min_ = other.min_;
      max_ = other.max_;
      has_values_ = true;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
}

void Histogram::Reset() {
  buckets_.clear();
  count_ = 0;
  sum_ = sum_sq_ = 0;
  min_ = max_ = 0;
  has_values_ = false;
}

std::string Histogram::Summary(const std::string& unit) const {
  const char* u = unit.c_str();
  return StrFormat(
      "n=%lld mean=%.3f%s p50=%.3f%s p95=%.3f%s p99=%.3f%s max=%.3f%s",
      static_cast<long long>(count_), mean(), u, Percentile(50), u,
      Percentile(95), u, Percentile(99), u, max(), u);
}

}  // namespace skyrise
