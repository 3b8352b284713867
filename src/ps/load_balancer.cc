#include "ps/load_balancer.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "obs/flight_recorder.h"
#include "util/logging.h"

namespace hetps {

double EstimateClockSeconds(double last_clock_seconds, size_t shard_size,
                            size_t pending_in) {
  if (last_clock_seconds <= 0.0) return 0.0;
  const double shard =
      static_cast<double>(std::max<size_t>(1, shard_size));
  return last_clock_seconds *
         (1.0 + static_cast<double>(pending_in) / shard);
}

Status LoadBalancerOptions::Validate() const {
  std::ostringstream bad;
  if (!(straggler_threshold > 1.0)) {
    bad << "--straggler_threshold must exceed 1, got " << straggler_threshold;
  } else if (!(reassign_fraction > 0.0 && reassign_fraction < 1.0)) {
    bad << "--reassign_fraction must be in (0, 1), got " << reassign_fraction;
  } else if (hysteresis < 1) {
    bad << "--rebalance_hysteresis must be >= 1, got " << hysteresis;
  } else if (recovery_windows < 1) {
    bad << "recovery_windows must be >= 1, got " << recovery_windows;
  }
  return bad.str().empty() ? Status::OK()
                           : Status::InvalidArgument(bad.str());
}

LoadBalancer::LoadBalancer(int num_workers,
                           const LoadBalancerOptions& options)
    : options_(options),
      num_workers_(num_workers),
      flagged_streak_(static_cast<size_t>(num_workers), 0),
      clean_streak_(static_cast<size_t>(num_workers), 0),
      pending_in_(static_cast<size_t>(num_workers), 0),
      lent_(static_cast<size_t>(num_workers) *
                static_cast<size_t>(num_workers),
            0),
      moved_counter_(GlobalMetrics().counter("lb.examples_moved")),
      returned_counter_(GlobalMetrics().counter("lb.examples_returned")),
      migrations_counter_(GlobalMetrics().counter("lb.migrations")),
      flags_counter_(GlobalMetrics().counter("lb.straggler_flags")) {
  HETPS_CHECK(num_workers > 0) << "need at least one worker";
  const Status valid = options.Validate();
  HETPS_CHECK(valid.ok()) << valid.message();
}

size_t LoadBalancer::OutstandingLoans(int worker) const {
  size_t total = 0;
  for (int b = 0; b < num_workers_; ++b) {
    total += lent_[static_cast<size_t>(worker) *
                       static_cast<size_t>(num_workers_) +
                   static_cast<size_t>(b)];
  }
  return total;
}

void LoadBalancer::OnWorkerEvicted(int worker) {
  HETPS_CHECK(worker >= 0 && worker < num_workers_)
      << "worker id out of range";
  // Loans in either direction die with the worker: as a straggler its
  // borrowed-out examples were redistributed by eviction failover; as a
  // borrower the borrowed examples sat in its shard and were failed over
  // with it. Either way there is nothing left to repay.
  for (int other = 0; other < num_workers_; ++other) {
    LoanSlot(worker, other) = 0;
    LoanSlot(other, worker) = 0;
  }
  pending_in_[static_cast<size_t>(worker)] = 0;
  flagged_streak_[static_cast<size_t>(worker)] = 0;
  clean_streak_[static_cast<size_t>(worker)] = 0;
}

std::vector<ShardMove> LoadBalancer::OnClockReport(
    int worker, int clock, double clock_seconds, Master* master,
    const std::vector<size_t>& shard_sizes) {
  HETPS_CHECK(worker >= 0 && worker < num_workers_)
      << "worker id out of range";
  HETPS_CHECK(shard_sizes.size() == static_cast<size_t>(num_workers_))
      << "shard size vector does not match worker count";
  std::vector<ShardMove> moves;
  if (!master->IsWorkerLive(worker)) return moves;
  // The reporter's inflow is now reflected in its reported time.
  pending_in_[static_cast<size_t>(worker)] = 0;

  const std::vector<int> stragglers =
      master->DetectStragglers(options_.straggler_threshold);
  const bool flagged =
      std::find(stragglers.begin(), stragglers.end(), worker) !=
      stragglers.end();
  // Track sizes locally while emitting this report's moves so each move
  // is capped against the state the previous one left behind.
  std::vector<size_t> sizes = shard_sizes;

  if (flagged) {
    clean_streak_[static_cast<size_t>(worker)] = 0;
    ++flagged_streak_[static_cast<size_t>(worker)];
    ++straggler_flags_;
    flags_counter_->Increment();
    if (flagged_streak_[static_cast<size_t>(worker)] <
        options_.hysteresis) {
      return moves;  // not persistent yet
    }
    const size_t mine = sizes[static_cast<size_t>(worker)];
    if (mine <= options_.min_shard_size) return moves;
    size_t shed = static_cast<size_t>(options_.reassign_fraction *
                                      static_cast<double>(mine));
    shed = std::min(shed, mine - options_.min_shard_size);
    if (options_.max_examples_per_round > 0) {
      shed = std::min(shed, options_.max_examples_per_round);
    }
    if (shed == 0) return moves;
    // Target: the least-loaded live worker, by last clock time adjusted
    // for examples already routed to it this round (several stragglers
    // can report within one clock; without the adjustment they all dump
    // on the same worker until it becomes the new straggler).
    int target = -1;
    double target_time = 0.0;
    for (int m = 0; m < num_workers_; ++m) {
      if (m == worker || !master->IsWorkerLive(m)) continue;
      const double t = EstimateClockSeconds(
          master->LastClockTime(m), sizes[static_cast<size_t>(m)],
          pending_in_[static_cast<size_t>(m)]);
      if (t <= 0.0) continue;  // unknown speed
      if (target < 0 || t < target_time) {
        target = m;
        target_time = t;
      }
    }
    if (target < 0) return moves;
    // The straggler rule re-checked against the *chosen* target's
    // adjusted load: once the shed work has equalized them, stop moving.
    if (clock_seconds <= options_.straggler_threshold * target_time) {
      return moves;
    }
    moves.push_back(ShardMove{worker, target, shed, /*returned=*/false});
    LoanSlot(worker, target) += shed;
    pending_in_[static_cast<size_t>(target)] += shed;
    examples_moved_ += static_cast<int64_t>(shed);
    ++migrations_;
    moved_counter_->Increment(static_cast<int64_t>(shed));
    migrations_counter_->Increment();
    FlightRecorder::Global().Record("lb.migrate", worker, clock,
                                    static_cast<double>(shed));
    HETPS_LOG(Info) << "lb: straggler " << worker << " sheds " << shed
                    << " examples to worker " << target << " at clock "
                    << clock;
    return moves;
  }

  // Clean report: reset the flag streak and, once the worker has been
  // clean long enough (the congestion episode ended), reclaim its loans.
  flagged_streak_[static_cast<size_t>(worker)] = 0;
  ++clean_streak_[static_cast<size_t>(worker)];
  if (clean_streak_[static_cast<size_t>(worker)] <
      options_.recovery_windows) {
    return moves;
  }
  const size_t loans_out = OutstandingLoans(worker);
  if (loans_out == 0) return moves;
  // A permanent straggler reads as clean only because its shard shrank:
  // per-example it is as slow as ever, and reclaiming would re-flag it
  // next clock (an endless shed/reclaim thrash). Clock time scales
  // ~linearly with shard size, so project this report onto the reclaimed
  // shard and reclaim only if the worker would stay under the straggler
  // threshold — true recoveries (a congestion episode ending) pass, a
  // merely-lightened straggler does not.
  const size_t mine_now = sizes[static_cast<size_t>(worker)];
  if (mine_now > 0 && clock_seconds > 0.0) {
    double fastest = 0.0;
    bool any = false;
    for (int m = 0; m < num_workers_; ++m) {
      if (m == worker || !master->IsWorkerLive(m)) continue;
      const double t = master->LastClockTime(m);
      if (t > 0.0 && (!any || t < fastest)) {
        fastest = t;
        any = true;
      }
    }
    const double projected =
        clock_seconds * (static_cast<double>(mine_now + loans_out) /
                         static_cast<double>(mine_now));
    if (any && projected > options_.straggler_threshold * fastest) {
      return moves;
    }
  }
  size_t budget = options_.max_examples_per_round > 0
                      ? options_.max_examples_per_round
                      : std::numeric_limits<size_t>::max();
  for (int b = 0; b < num_workers_ && budget > 0; ++b) {
    size_t& loan = LoanSlot(worker, b);
    if (loan == 0) continue;
    if (!master->IsWorkerLive(b)) {
      // The borrower died; its shard (loan included) was failed over.
      loan = 0;
      continue;
    }
    const size_t borrower = sizes[static_cast<size_t>(b)];
    const size_t avail = borrower > options_.min_shard_size
                             ? borrower - options_.min_shard_size
                             : 0;
    const size_t give = std::min({loan, avail, budget});
    if (give == 0) continue;
    moves.push_back(ShardMove{b, worker, give, /*returned=*/true});
    loan -= give;
    budget -= give;
    sizes[static_cast<size_t>(b)] -= give;
    sizes[static_cast<size_t>(worker)] += give;
    pending_in_[static_cast<size_t>(worker)] += give;
    examples_returned_ += static_cast<int64_t>(give);
    ++migrations_;
    returned_counter_->Increment(static_cast<int64_t>(give));
    migrations_counter_->Increment();
    FlightRecorder::Global().Record("lb.return", b, clock,
                                    static_cast<double>(give));
    HETPS_LOG(Info) << "lb: recovered worker " << worker << " reclaims "
                    << give << " examples from worker " << b
                    << " at clock " << clock;
  }
  return moves;
}

}  // namespace hetps
