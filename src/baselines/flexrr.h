#ifndef HETPS_BASELINES_FLEXRR_H_
#define HETPS_BASELINES_FLEXRR_H_

#include <vector>

#include "ps/load_balancer.h"

namespace hetps {

/// FlexRR-style straggler mitigation [Harlap et al., SoCC'16] as evaluated
/// in §7.3 (footnote 3): whenever a worker's clock takes more than
/// `straggler_threshold` times the fastest worker's, reassign
/// `reassign_fraction` of its shard to the fastest worker.
///
/// Mitigates *computation* heterogeneity only — a network-bound straggler
/// still pays full transmission time, which is exactly the limitation the
/// paper's Figure 7 discussion points out.
class FlexRrMitigation final : public StragglerMitigation {
 public:
  struct Options {
    double straggler_threshold = 1.2;  // ">20% slower than the fastest"
    double reassign_fraction = 0.05;   // "5% of the straggler's data"
    /// Keep at least this many examples on every worker.
    size_t min_shard_size = 8;
  };

  FlexRrMitigation() = default;
  explicit FlexRrMitigation(Options options);

  /// At most one move off `worker`'s tail: the fraction of its shard,
  /// capped so `min_shard_size` examples stay, to the candidate with the
  /// least estimated load (EstimateClockSeconds over its last clock time
  /// and the examples handed to it since; an unknown time rules it out).
  std::vector<ShardMove> OnClockReport(
      int worker, int clock, const std::vector<double>& clock_seconds,
      const std::vector<size_t>& shard_sizes) override;

  /// Total examples moved so far (observability for tests/benches).
  size_t examples_reassigned() const { return examples_reassigned_; }

 private:
  Options options_;
  size_t examples_reassigned_ = 0;
  std::vector<size_t> pending_in_;  // examples received since last report
};

}  // namespace hetps

#endif  // HETPS_BASELINES_FLEXRR_H_
