#ifndef HETPS_PS_LOAD_BALANCER_H_
#define HETPS_PS_LOAD_BALANCER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "ps/master.h"
#include "util/status.h"

namespace hetps {

/// Load estimate for a worker: its last reported clock time, scaled up by
/// the examples it has been handed since that report (they are not yet
/// reflected in the timing). Shared by the engine's LoadBalancer and the
/// FlexRR baseline so both rank migration targets identically. Returns
/// 0.0 when the worker's speed is unknown (no report yet).
double EstimateClockSeconds(double last_clock_seconds, size_t shard_size,
                            size_t pending_in);

struct LoadBalancerOptions {
  /// A worker is flagged when its last clock exceeds `threshold` times
  /// the fastest live worker's (FlexRR's ">20% slower" rule), via
  /// Master::DetectStragglers.
  double straggler_threshold = 1.2;
  /// Consecutive flagged reports before the first migration. One
  /// jittered clock must not trigger a shard move; only *persistent*
  /// stragglers shed work.
  int hysteresis = 3;
  /// Fraction of the straggler's shard shed per flagged report once the
  /// hysteresis holds — the per-round migration rate (FlexRR's 5%).
  double reassign_fraction = 0.05;
  /// Hard cap on examples moved by one report's decision, covering both
  /// migrations and returns (0 = only the fraction/min-shard caps apply).
  size_t max_examples_per_round = 0;
  /// Never shrink any shard below this many examples.
  size_t min_shard_size = 8;
  /// Consecutive clean (unflagged) reports before a recovered straggler
  /// starts reclaiming the examples it lent out — the return path of a
  /// congestion episode.
  int recovery_windows = 3;

  /// InvalidArgument naming the first out-of-range knob (by its CLI
  /// flag where it has one), OK otherwise.
  Status Validate() const;
};

/// One decided migration: move `count` examples from the tail of `from`'s
/// shard to the back of `to`'s. `returned` marks the reassignment-back
/// leg (a recovered straggler reclaiming lent examples).
struct ShardMove {
  int from = -1;
  int to = -1;
  size_t count = 0;
  bool returned = false;
};

/// A move policy: told each worker's compute time per clock, it decides
/// which examples move where, and the ShardPlane applies the moves
/// (DESIGN.md "Load-balancing plane"). LoadBalancer and the FlexRR
/// baseline implement it.
class StragglerMitigation {
 public:
  virtual ~StragglerMitigation() = default;

  /// Worker `worker` spent `clock_seconds` computing clock `clock`;
  /// `shard_sizes[m]` is worker m's current entitlement. Returns the
  /// moves to apply, in order (possibly none).
  virtual std::vector<ShardMove> OnClockReport(
      int worker, int clock, double clock_seconds, Master* master,
      const std::vector<size_t>& shard_sizes) = 0;

  /// `worker` was evicted and its entitlement spread over the others.
  virtual void OnWorkerEvicted(int worker) { (void)worker; }
};

/// The decision core of the load-balancing plane (DESIGN.md
/// "Load-balancing plane"): per-clock timing reports feed
/// Master::DetectStragglers; a worker flagged for `hysteresis`
/// consecutive reports sheds `reassign_fraction` of its shard per round
/// to the least-loaded fast worker, and reclaims the loans once it has
/// been clean for `recovery_windows` reports.
///
/// The balancer only *decides* moves — the ShardPlane that runs it owns
/// the entitlements and applies them, and workers pick them up at their
/// next clock start, which is what keeps migrations at clock boundaries
/// without violating SSP. Deliberately count-based: it tracks a
/// per-(straggler, borrower) loan ledger, never example identities.
///
/// NOT thread-safe: the ShardPlane serializes every call.
class LoadBalancer final : public StragglerMitigation {
 public:
  LoadBalancer(int num_workers, const LoadBalancerOptions& options);

  /// Worker `worker` reports its measured compute time for `clock`.
  /// Must be called *after* Master::ReportClockTime so the straggler
  /// statistics already include this report. `shard_sizes[m]` is worker
  /// m's current entitlement; decided moves respect min_shard_size /
  /// max_examples_per_round against these sizes. Returns the moves to
  /// apply (possibly empty). Reports from dead workers are ignored.
  std::vector<ShardMove> OnClockReport(
      int worker, int clock, double clock_seconds, Master* master,
      const std::vector<size_t>& shard_sizes) override;

  /// Forget loans involving an evicted worker: its shard (including any
  /// borrowed examples) is spread by the eviction failover machinery, so
  /// the ledger entries can never be repaid.
  void OnWorkerEvicted(int worker) override;

  /// --- Accounting (mirrored into lb.* counters) ---
  int64_t examples_moved() const { return examples_moved_; }
  int64_t examples_returned() const { return examples_returned_; }
  int64_t migrations() const { return migrations_; }
  int64_t straggler_flags() const { return straggler_flags_; }
  /// Examples `worker` has lent out and not yet reclaimed.
  size_t OutstandingLoans(int worker) const;

 private:
  size_t& LoanSlot(int from, int to) {
    return lent_[static_cast<size_t>(from) *
                     static_cast<size_t>(num_workers_) +
                 static_cast<size_t>(to)];
  }

  const LoadBalancerOptions options_;
  const int num_workers_;
  std::vector<int> flagged_streak_;
  std::vector<int> clean_streak_;
  /// Examples handed to each worker since its own last report.
  std::vector<size_t> pending_in_;
  /// lent_[from * n + to]: examples `from` (a straggler) has lent `to`.
  std::vector<size_t> lent_;

  int64_t examples_moved_ = 0;
  int64_t examples_returned_ = 0;
  int64_t migrations_ = 0;
  int64_t straggler_flags_ = 0;
  Counter* moved_counter_;
  Counter* returned_counter_;
  Counter* migrations_counter_;
  Counter* flags_counter_;
};

}  // namespace hetps

#endif  // HETPS_PS_LOAD_BALANCER_H_
