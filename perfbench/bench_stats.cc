#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const int64_t ld = static_cast<int64_t>(values.size());
  if (ld == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"), n = 4, in exact integer
  // arithmetic: the i-th cut point sits at position i * (ld + 1) / 4.
  const int64_t m = ld + 1;
  double cuts[3];
  for (int64_t i = 1; i <= 3; ++i) {
    int64_t j = i * m / 4;
    j = std::clamp<int64_t>(j, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    cuts[i - 1] = (values[static_cast<size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   values[static_cast<size_t>(j)] *
                       static_cast<double>(delta)) /
                  4.0;
  }
  q.q1 = cuts[0];
  q.median = cuts[1];
  q.q3 = cuts[2];
  return q;
}

double RelativeIqr(const Quartiles& q) {
  return q.median == 0.0 ? 0.0 : (q.q3 - q.q1) / q.median;
}

double TailPercentile(int64_t n, double cap) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0,
                                       95.0, 90.0, 75.0, 50.0};
  for (double p : kLadder) {
    if (p > cap) continue;
    // Samples strictly beyond the p-th percentile's rank.
    const double beyond =
        static_cast<double>(n) -
        std::ceil(p / 100.0 * static_cast<double>(n));
    if (beyond >= 10.0) return p;
  }
  return 0.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(values.size()));
  return values[static_cast<size_t>(rank - 1)];
}

BlockTail BlockedTail(const std::vector<double>& samples, size_t block,
                      double cap) {
  BlockTail tail;
  if (samples.empty() || block == 0) return tail;
  const size_t blocks = std::max<size_t>(1, samples.size() / block);
  std::vector<double> tails;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t end = b + 1 == blocks ? samples.size() : (b + 1) * block;
    const std::vector<double> part(
        samples.begin() + static_cast<std::ptrdiff_t>(b * block),
        samples.begin() + static_cast<std::ptrdiff_t>(end));
    double p = TailPercentile(static_cast<int64_t>(part.size()), cap);
    if (p == 0.0) p = 50.0;  // too few samples for any tail: the median
    if (b == 0) tail.percentile = p;
    tails.push_back(Percentile(part, p));
  }
  tail.value = Median(tails);
  tail.blocks = static_cast<int64_t>(blocks);
  return tail;
}

int FirstSustainedIndex(const std::vector<double>& values, double target,
                        int run) {
  int streak = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    streak = values[i] <= target ? streak + 1 : 0;
    if (streak >= std::max(run, 1)) {
      return static_cast<int>(i) - std::max(run, 1) + 1;
    }
  }
  return -1;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

double UnattributedShare(const std::vector<Span>& spans,
                         const std::vector<int64_t>& self_times) {
  double total = 0.0;
  double unattributed = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    total += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    unattributed += static_cast<double>(self_times[i]);
  }
  return total > 0.0 ? unattributed / total : 0.0;
}

double BucketQuantile(const std::vector<int64_t>& counts,
                      const std::vector<int64_t>& lower,
                      const std::vector<int64_t>& upper, double q) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  int64_t rank = static_cast<int64_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(total)));
  rank = std::max<int64_t>(rank, 1);
  int64_t seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    seen += counts[b];
    if (seen >= rank) {
      if (upper[b] - lower[b] <= 1) return static_cast<double>(lower[b]);
      return (static_cast<double>(lower[b]) +
              static_cast<double>(upper[b])) /
             2.0;
    }
  }
  return static_cast<double>(lower.back());
}

}  // namespace perfbench
