#ifndef HETPS_UTIL_STATS_H_
#define HETPS_UTIL_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace hetps {

/// Welford online mean/variance accumulator.
class RunningStat {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel-friendly).
  void Merge(const RunningStat& other);

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Mean of the elements of `v`; 0 for empty input.
double Mean(const std::vector<double>& v);

/// Sample variance (n-1 denominator); 0 for fewer than two elements.
double Variance(const std::vector<double>& v);

/// Fixed-bucket linear histogram over [lo, hi); out-of-range values clamp to
/// the first/last bucket. Used by benches for per-update time distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);

  void Add(double x);
  size_t TotalCount() const { return total_; }
  size_t BucketCount(size_t i) const { return counts_.at(i); }
  size_t num_buckets() const { return counts_.size(); }
  double bucket_lo(size_t i) const;
  double bucket_hi(size_t i) const;

  /// Approximate quantile q in [0,1] from bucket midpoints.
  double ApproxQuantile(double q) const;

  std::string ToString(size_t max_width = 40) const;

 private:
  double lo_;
  double hi_;
  double width_;
  size_t total_ = 0;
  std::vector<size_t> counts_;
};

}  // namespace hetps

#endif  // HETPS_UTIL_STATS_H_
