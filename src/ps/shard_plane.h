#ifndef HETPS_PS_SHARD_PLANE_H_
#define HETPS_PS_SHARD_PLANE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "data/sharding.h"
#include "ps/load_balancer.h"
#include "ps/status.h"

namespace hetps {

class ParameterServer;

/// Everything a ShardPlane has moved so far.
struct ShardPlaneTotals {
  std::vector<int> evicted_workers;  // in eviction order
  int64_t shard_reassignments = 0;   // receivers that adopted examples
  int64_t examples_failed_over = 0;
  /// The LoadBalancer's totals (0 without one).
  int64_t examples_rebalanced = 0;
  int64_t examples_returned = 0;
  int64_t migrations = 0;
};

/// The one place examples move between workers, in the RPC trainer and
/// the event simulator alike (DESIGN.md §6). It serves one
/// ParameterServer, whose clock table is the one record of who is live,
/// and owns each worker's entitlement (the examples it computes on from
/// its next clock), a generation per worker that every change bumps,
/// each live worker's last reported compute time and at most one move
/// policy: `balancer` (a LoadBalancer the plane runs) or a caller-owned
/// `policy` such as the FlexRR baseline. Moves edit entitlements only; a
/// worker copies its changed entitlement into its shard with Refresh
/// when it starts a clock, so no move ever touches a shard a running
/// clock reads. One mutex serializes every call, and it is held while
/// the plane reads membership (lock order: ParameterServer).
class ShardPlane {
 public:
  /// One entitlement per worker of `ps`, which must outlive the plane.
  ShardPlane(const ParameterServer* ps, std::vector<DataShard> entitlements,
             const LoadBalancerOptions* balancer = nullptr,
             StragglerMitigation* policy = nullptr);

  /// Records live worker `worker`'s compute time for `clock`, shows the
  /// policy every worker's last time (an evicted worker's reads as
  /// unknown, 0) and applies the returned moves with ReassignTail, each
  /// to what the previous one left. A report from an evicted worker is
  /// ignored, and a move that touches one is dropped.
  void OnClockReport(int worker, int clock, double seconds);

  /// Tells the policy that `victim`, which the ParameterServer has
  /// evicted, is gone, and spreads its entitlement (adopted examples
  /// included) over `receivers` with ReassignAcross: contiguous runs,
  /// the remainder to earlier receivers. Evicted workers, the victim
  /// included, never receive. Returns the examples moved (0 with no
  /// receiver left: they are dropped).
  size_t Evict(int victim, const std::vector<int>& receivers);

  /// Copies `worker`'s entitlement into `shard` if it changed since the
  /// worker's last Refresh.
  void Refresh(int worker, DataShard* shard);

  DataShard entitlement(int worker) const;
  /// Fills in the LoadBalancer's totals and loans (nothing without one).
  void DecorateStatus(StatusSnapshot* snap) const;
  ShardPlaneTotals Totals() const;

 private:
  size_t Index(int worker) const;

  const ParameterServer* ps_;
  mutable std::mutex mu_;
  std::vector<DataShard> entitlements_;
  std::vector<uint64_t> generation_;
  std::vector<uint64_t> refreshed_;  // the generation each shard copied
  std::vector<double> clock_seconds_;  // last report per worker, 0 = none
  std::unique_ptr<LoadBalancer> balancer_;
  StragglerMitigation* policy_;  // balancer_, the caller's, or null
  ShardPlaneTotals totals_;
};

}  // namespace hetps

#endif  // HETPS_PS_SHARD_PLANE_H_
