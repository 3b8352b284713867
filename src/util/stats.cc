#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace hetps {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const {
  return std::sqrt(variance());
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size() - 1);
}

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  HETPS_CHECK(hi > lo) << "Histogram requires hi > lo";
  HETPS_CHECK(buckets > 0) << "Histogram requires at least one bucket";
  width_ = (hi - lo) / static_cast<double>(buckets);
}

void Histogram::Add(double x) {
  ++total_;
  if (x < lo_) {
    ++counts_.front();
    return;
  }
  size_t i = static_cast<size_t>((x - lo_) / width_);
  if (i >= counts_.size()) i = counts_.size() - 1;
  ++counts_[i];
}

double Histogram::bucket_lo(size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bucket_hi(size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

double Histogram::ApproxQuantile(double q) const {
  if (total_ == 0) return lo_;
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cum += static_cast<double>(counts_[i]);
    if (cum >= target) {
      return lo_ + width_ * (static_cast<double>(i) + 0.5);
    }
  }
  return hi_;
}

std::string Histogram::ToString(size_t max_width) const {
  size_t peak = 1;
  for (size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const size_t bar = counts_[i] * max_width / peak;
    os << "[" << bucket_lo(i) << ", " << bucket_hi(i) << ") "
       << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace hetps
