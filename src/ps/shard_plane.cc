#include "ps/shard_plane.h"

#include <algorithm>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace hetps {

ShardPlane::ShardPlane(std::vector<DataShard> entitlements,
                       const LoadBalancerOptions* balancer,
                       StragglerMitigation* policy)
    : entitlements_(std::move(entitlements)),
      generation_(entitlements_.size(), 0),
      refreshed_(entitlements_.size(), 0),
      evicted_(entitlements_.size(), false),
      policy_(policy) {
  HETPS_CHECK(balancer == nullptr || policy == nullptr)
      << "a shard plane runs one move policy";
  if (balancer != nullptr) {
    balancer_ = std::make_unique<LoadBalancer>(
        static_cast<int>(entitlements_.size()), *balancer);
    policy_ = balancer_.get();
  }
}

size_t ShardPlane::Index(int worker) const {
  HETPS_CHECK(worker >= 0 &&
              static_cast<size_t>(worker) < entitlements_.size())
      << "worker id out of range";
  return static_cast<size_t>(worker);
}

void ShardPlane::OnClockReport(int worker, int clock, double seconds,
                               Master* master) {
  std::lock_guard<std::mutex> lock(mu_);
  if (policy_ == nullptr) return;
  std::vector<size_t> sizes;
  for (const DataShard& e : entitlements_) sizes.push_back(e.size());
  for (const ShardMove& mv :
       policy_->OnClockReport(worker, clock, seconds, master, sizes)) {
    const size_t from = Index(mv.from);
    const size_t to = Index(mv.to);
    if (ReassignTail(&entitlements_[from], &entitlements_[to], mv.count)) {
      ++generation_[from];
      ++generation_[to];
    }
  }
}

size_t ShardPlane::Evict(int victim, const std::vector<int>& receivers) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t v = Index(victim);
  evicted_[v] = true;
  totals_.evicted_workers.push_back(victim);
  if (policy_ != nullptr) policy_->OnWorkerEvicted(victim);
  std::vector<DataShard*> to;
  for (int r : receivers) {
    if (!evicted_[Index(r)]) to.push_back(&entitlements_[Index(r)]);
  }
  const size_t moved = ReassignAcross(&entitlements_[v], to);
  ++generation_[v];
  // With fewer examples than receivers only the first `moved` get one.
  const size_t touched = std::min(to.size(), moved);
  for (size_t i = 0; i < touched; ++i) {
    ++generation_[static_cast<size_t>(to[i] - entitlements_.data())];
  }
  totals_.shard_reassignments += static_cast<int64_t>(touched);
  totals_.examples_failed_over += static_cast<int64_t>(moved);
  FlightRecorder::Global().Record("shard_failover", victim, /*clock=*/-1,
                                  static_cast<double>(moved));
  if (moved > 0) {
    GlobalMetrics()
        .counter("ps.shard_reassignments")
        ->Increment(static_cast<int64_t>(touched));
    HETPS_TRACE_INSTANT1("ps.shard_failover", "worker", victim);
  }
  HETPS_LOG(Info) << "failover: worker " << victim << "'s " << moved
                  << " examples spread across " << to.size()
                  << " receivers";
  return moved;
}

void ShardPlane::Refresh(int worker, DataShard* shard) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t w = Index(worker);
  if (refreshed_[w] == generation_[w]) return;
  shard->example_indices = entitlements_[w].example_indices;
  refreshed_[w] = generation_[w];
}

bool ShardPlane::evicted(int worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_[Index(worker)];
}

DataShard ShardPlane::entitlement(int worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entitlements_[Index(worker)];
}

void ShardPlane::DecorateStatus(StatusSnapshot* snap) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (balancer_ == nullptr) return;
  snap->examples_moved = balancer_->examples_moved();
  snap->examples_returned = balancer_->examples_returned();
  snap->migrations = balancer_->migrations();
  for (WorkerStatus& w : snap->workers) {
    w.loans_out = static_cast<int64_t>(
        balancer_->OutstandingLoans(static_cast<int>(Index(w.worker))));
  }
}

ShardPlaneTotals ShardPlane::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  ShardPlaneTotals t = totals_;
  if (balancer_ != nullptr) {
    t.examples_rebalanced = balancer_->examples_moved();
    t.examples_returned = balancer_->examples_returned();
    t.migrations = balancer_->migrations();
  }
  return t;
}

}  // namespace hetps
