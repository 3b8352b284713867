#ifndef HETPS_PERFBENCH_BENCH_STATS_H_
#define HETPS_PERFBENCH_BENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// 0 when empty.
double Median(std::vector<double> values);

/// First, second and third quartile by the "exclusive" method of
/// Python's statistics.quantiles(values, n=4), so spreads printed here
/// match the ones computed over repeated runs. With one value all three
/// quartiles are that value; 0 when empty.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles ComputeQuartiles(std::vector<double> values);

/// (q3 - q1) / median; 0 when the median is 0.
double RelativeIqr(const Quartiles& q);

/// The tail percentile a timing may be reported at: the highest of
/// 50, 75, 90, 95, 98, 99, 99.5 and 99.9, not above `cap`, that leaves at
/// least ten of `n` samples beyond it. 0 when not even the median does
/// (fewer than 20 samples).
double TailPercentile(int64_t n, double cap = 99.0);

/// A tail that a burst of slow samples cannot move alone: `samples`, in
/// recording order, are cut into consecutive blocks of `block` samples
/// (the remainder joins the last block; fewer than `block` samples make
/// one block), each block's tail is taken at TailPercentile(block size,
/// cap), and the result is the median over blocks. `percentile` is the
/// one used for the first block; 0 values when empty.
struct BlockTail {
  double value = 0.0;
  double percentile = 0.0;
  int64_t blocks = 0;
};
BlockTail BlockedTail(const std::vector<double>& samples, size_t block,
                      double cap = 99.0);

/// Nearest-rank percentile (`p` in [0, 100]) of `values`: the smallest
/// value with at least p% of the samples at or below it. 0 when empty.
double Percentile(std::vector<double> values, double p);

/// First index k at which `values[k .. k + run - 1]` are all at or below
/// `target`, i.e. where the series first holds the target for `run`
/// consecutive entries. -1 when it never does.
int FirstSustainedIndex(const std::vector<double>& values, double target,
                        int run);

/// One traced interval on one thread. `parent` indexes the enclosing span
/// in the same per-thread buffer (-1 for a root).
struct Span {
  int name = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent and
/// overlapping children are counted once). Same order as `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Share of the root spans' total duration that no child span covers:
/// sum of root self times over sum of root durations. 0 without roots.
double UnattributedShare(const std::vector<Span>& spans,
                         const std::vector<int64_t>& self_times);

/// Value at quantile `q` in [0, 1] of a bucketed histogram given as
/// per-bucket counts and each bucket's [lower, upper) bounds: the
/// midpoint of the bucket holding the nearest-rank sample. 0 when empty.
double BucketQuantile(const std::vector<int64_t>& counts,
                      const std::vector<int64_t>& lower,
                      const std::vector<int64_t>& upper, double q);

}  // namespace perfbench

#endif  // HETPS_PERFBENCH_BENCH_STATS_H_
