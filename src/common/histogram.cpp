#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/units.hpp"

namespace sdr {

Histogram::Histogram(double min_value, double max_value,
                     std::size_t sub_buckets)
    : min_value_(min_value),
      max_value_(max_value),
      sub_buckets_(sub_buckets),
      log_min_(std::log(min_value)),
      observed_min_(std::numeric_limits<double>::infinity()),
      observed_max_(-std::numeric_limits<double>::infinity()) {
  // Each decade of dynamic range is split into sub_buckets_ log-spaced
  // buckets; total bucket count covers [min_value, max_value].
  const double decades = std::log10(max_value / min_value);
  const std::size_t total =
      static_cast<std::size_t>(std::ceil(decades * static_cast<double>(sub_buckets_))) + 2;
  log_base_ = std::log(10.0) / static_cast<double>(sub_buckets_);
  buckets_.assign(total, 0);
}

std::size_t Histogram::bucket_index(double value) const {
  if (value <= min_value_) return 0;
  if (value >= max_value_) return buckets_.size() - 1;
  const double idx = (std::log(value) - log_min_) / log_base_;
  const auto i = static_cast<std::size_t>(idx) + 1;
  return std::min(i, buckets_.size() - 1);
}

double Histogram::bucket_low(std::size_t index) const {
  if (index == 0) return 0.0;
  return std::exp(log_min_ + static_cast<double>(index - 1) * log_base_);
}

double Histogram::bucket_high(std::size_t index) const {
  if (index + 1 >= buckets_.size()) return max_value_;
  return std::exp(log_min_ + static_cast<double>(index) * log_base_);
}

void Histogram::record(double value) { record_n(value, 1); }

void Histogram::record_n(double value, std::uint64_t n) {
  if (n == 0) return;
  buckets_[bucket_index(value)] += n;
  count_ += n;
  const double dn = static_cast<double>(n);
  sum_ += value * dn;
  sum_sq_ += value * value * dn;
  observed_min_ = std::min(observed_min_, value);
  observed_max_ = std::max(observed_max_, value);
}

double Histogram::min() const { return count_ ? observed_min_ : 0.0; }
double Histogram::max() const { return count_ ? observed_max_ : 0.0; }

double Histogram::stddev() const {
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double var = std::max(0.0, sum_sq_ / n - (sum_ / n) * (sum_ / n));
  return std::sqrt(var);
}

double Histogram::percentile(double pct) const {
  if (count_ == 0) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  // 99.9/100.0 rounds UP in binary (0.99900000000000011...), so a bare
  // ceil(pct/100 * count) lands on rank 1000 of 1000 samples instead of
  // 999 — p99.9 silently became max on sparse histograms. Shave one ulp's
  // worth before ceiling so exact-rank products stay at their exact rank.
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(pct / 100.0 * static_cast<double>(count_) - 1e-9)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      // Midpoint of the bucket (geometric mean keeps relative error small),
      // clamped to observed extremes so tiny sample sets stay exact-ish.
      const double low = bucket_low(i);
      const double high = bucket_high(i);
      const double mid = low > 0.0 ? std::sqrt(low * high) : high * 0.5;
      return std::clamp(mid, observed_min_, observed_max_);
    }
  }
  return observed_max_;
}

void Histogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  sum_sq_ = 0.0;
  observed_min_ = std::numeric_limits<double>::infinity();
  observed_max_ = -std::numeric_limits<double>::infinity();
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < buckets_.size() && i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  observed_min_ = std::min(observed_min_, other.observed_min_);
  observed_max_ = std::max(observed_max_, other.observed_max_);
}

}  // namespace sdr
