#include "baselines/flexrr.h"

#include "util/logging.h"

namespace hetps {

FlexRrMitigation::FlexRrMitigation(Options options) : options_(options) {
  HETPS_CHECK(options.straggler_threshold > 1.0)
      << "threshold must exceed 1";
  HETPS_CHECK(options.reassign_fraction > 0.0 &&
              options.reassign_fraction < 1.0)
      << "reassign fraction out of (0,1)";
}

std::vector<ShardMove> FlexRrMitigation::OnClockReport(
    int worker, int clock, const std::vector<double>& clock_seconds,
    const std::vector<size_t>& shard_sizes) {
  (void)clock;
  std::vector<ShardMove> moves;
  if (pending_in_.size() < shard_sizes.size()) {
    pending_in_.resize(shard_sizes.size(), 0);
  }
  // The reporter's own inflow is now reflected in its reported time.
  pending_in_[static_cast<size_t>(worker)] = 0;

  // Pick the least-loaded candidate target. Its estimate counts the
  // examples already handed to it this round: several stragglers report
  // within one clock, and without that they all dump on the same worker
  // until it becomes the new straggler.
  int target = -1;
  double target_time = 0.0;
  for (size_t m = 0; m < shard_sizes.size(); ++m) {
    if (static_cast<int>(m) == worker) continue;
    const double t =
        EstimateClockSeconds(clock_seconds[m], shard_sizes[m], pending_in_[m]);
    if (t <= 0.0) continue;  // unknown speed
    if (target < 0 || t < target_time) {
      target = static_cast<int>(m);
      target_time = t;
    }
  }
  if (target < 0) return moves;
  // Move only if this worker is a straggler relative to the target's
  // estimated load (FlexRR's ">20% slower" rule).
  if (clock_seconds[static_cast<size_t>(worker)] <=
      options_.straggler_threshold * target_time) {
    return moves;
  }

  const size_t before = shard_sizes[static_cast<size_t>(worker)];
  if (before <= options_.min_shard_size) return moves;
  // Cap the fraction so the shard never drops below the minimum size.
  double fraction = options_.reassign_fraction;
  const size_t max_move = before - options_.min_shard_size;
  if (static_cast<size_t>(fraction * static_cast<double>(before)) >
      max_move) {
    fraction = static_cast<double>(max_move) / static_cast<double>(before);
  }
  const size_t count =
      static_cast<size_t>(fraction * static_cast<double>(before));
  if (count == 0) return moves;
  moves.push_back(ShardMove{worker, target, count, /*returned=*/false});
  examples_reassigned_ += count;
  pending_in_[static_cast<size_t>(target)] += count;
  return moves;
}

}  // namespace hetps
