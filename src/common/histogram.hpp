// Latency histogram with log-spaced buckets and percentile queries.
//
// The paper reports mean and 99.9th-percentile Write completion times
// (Figs 10, 13). For tail percentiles over millions of stochastic samples we
// keep an HdrHistogram-style log-linear bucketing: values are grouped into
// buckets whose width grows geometrically, giving a bounded relative error
// (default < 1%) at O(1) record cost and O(buckets) memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sdr {

class Histogram {
 public:
  /// `min_value` and `max_value` bound the recordable range (values are
  /// clamped); `sub_buckets` controls relative precision (128 -> <1% error).
  explicit Histogram(double min_value = 1e-9, double max_value = 1e6,
                     std::size_t sub_buckets = 128);

  void record(double value);
  void record_n(double value, std::uint64_t count);

  std::uint64_t count() const { return count_; }
  double min() const;
  double max() const;
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double stddev() const;

  /// Percentile in [0, 100]; e.g. percentile(99.9).
  double percentile(double pct) const;
  double median() const { return percentile(50.0); }

  void clear();

  /// Merge another histogram with identical configuration.
  void merge(const Histogram& other);

 private:
  std::size_t bucket_index(double value) const;
  double bucket_low(std::size_t index) const;
  double bucket_high(std::size_t index) const;

  double min_value_;
  double max_value_;
  std::size_t sub_buckets_;
  double log_min_;
  double log_base_;  // log of per-sub-bucket growth factor
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_{0};
  double sum_{0.0};
  double sum_sq_{0.0};
  double observed_min_{0.0};
  double observed_max_{0.0};
};

}  // namespace sdr
