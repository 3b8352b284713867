#ifndef HETPS_ENGINE_WORKER_LOOP_H_
#define HETPS_ENGINE_WORKER_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/learning_rate.h"
#include "core/sgd_compute.h"
#include "core/sync_policy.h"
#include "data/dataset.h"
#include "data/sharding.h"
#include "engine/workload.h"
#include "math/loss.h"
#include "net/message_bus.h"
#include "obs/breakdown.h"
#include "ps/ps_client.h"
#include "util/status.h"

namespace hetps {

/// The options both real trainers share, with the same meaning and
/// default. ThreadedTrainerOptions and DistributedTrainerOptions extend
/// it with what only their runtime has.
struct TrainSpec {
  SyncPolicy sync = SyncPolicy::Ssp(3);
  int max_clocks = 20;
  double l2 = 1e-4;
  double batch_fraction = 0.1;
  int num_workers = 4;
  int num_servers = 2;
  /// Version-based partition synchronization through the master (§6);
  /// effective with a deferred-mode DynSGD rule.
  bool partition_sync = false;
  /// Examples used per objective evaluation (0 = whole dataset).
  size_t eval_sample = 2000;
  uint64_t seed = 11;
  /// Version-aware pull path (§6): the pull sends the client's cached
  /// tags, so the PS ships only changed partitions (whole block or
  /// sparse delta, whichever is smaller). Off = no tags, so every
  /// partition ships whole, in its cheaper layout.
  bool delta_pull = true;
  /// Asynchronous push pipeline (PsClient): 0 = synchronous pushes, >= 1
  /// = bounded in-flight window (1 = compute clock c+1 while the push of
  /// clock c is in flight).
  int push_window = 0;
  /// Threads applying a push's partition pieces server-side (see
  /// PsOptions::push_parallelism): 1 = serial (default), 0 = auto.
  int push_parallelism = 1;
  /// Per-worker injected compute delay in wall seconds per clock — the
  /// paper's sleep()-based straggler emulation (§3 Protocol). Empty =
  /// none; shorter than num_workers is zero-padded, longer is rejected.
  std::vector<double> injected_compute_delay;
  /// Called on worker 0's thread after each of its clocks (1-based
  /// count). RunReporter::OnEpoch hooks in here to snapshot metrics
  /// mid-run. Keep it cheap: it runs inside the training loop.
  std::function<void(int)> on_epoch;
};

/// The RPC runtime's planes, which the loop serves at clock boundaries.
/// The threaded runtime runs without them.
struct BusPlanes {
  /// `fault_worker` crash-stops (or hangs) just before `kill_at_clock`.
  FaultPlan faults;
  /// The service's liveness time, which a hang waits out.
  std::function<double()> liveness_now;
  /// Own eviction ends a hang, and its FailedPrecondition is a clean exit.
  std::function<bool(int worker)> evicted;
  /// Copies the worker's entitlement into its shard when failover or
  /// rebalancing changed it.
  std::function<void(int worker)> refresh_shard;
  /// Reports every clock's compute time (the load-balancing plane).
  bool report_clock = false;
  /// Worker 0 calls it after each evaluation, with the clocks run so far.
  std::function<void(int clocks_run)> after_eval;
};

/// Everything one run's workers share. The linear trainers' fields
/// (dataset, loss, schedule, shards) stay empty in the models' runs.
struct WorkerLoop {
  const Dataset* dataset = nullptr;
  const LossFunction* loss = nullptr;
  const LearningRateSchedule* schedule = nullptr;
  const TrainSpec* spec = nullptr;
  std::vector<DataShard> shards;  // contiguous split
  std::vector<double> delays;     // padded to num_workers
  /// Clocks run: [start_clock, start_clock + max_clocks).
  int start_clock = 0;
  bool prefetch = false;
  /// Worker 0's objective after each of its clocks; null records none.
  std::vector<double>* trace = nullptr;
  const BusPlanes* planes = nullptr;  // null in the threaded runtime

  /// The objective of `weights` over eval_sample examples (0 = all).
  double Objective(const std::vector<double>& weights) const;
};

/// The linear trainers' Workload: LocalWorkerSgd over loop.shards[worker]
/// with the spec's batch fraction and L2. It names the keys each clock
/// wrote, so pulls refresh the replica in place.
class SgdWorkload final : public Workload {
 public:
  SgdWorkload(const WorkerLoop& loop, int worker);

  void RunClock(int clock, std::vector<double>* replica,
                SparseVector* update) override {
    sgd_.RunClock(clock, replica, update);
  }
  const std::vector<int64_t>* written_keys() const override {
    return &sgd_.written_keys();
  }

  /// The examples it trains on, which the RPC runtime's failover and
  /// rebalancing replace between clocks.
  DataShard* mutable_shard() { return sgd_.mutable_shard(); }

 private:
  LocalWorkerSgd sgd_;
};

/// Checks `spec` against `dataset` and prepares the run's shards and
/// delays. InvalidArgument on an empty dataset, no workers or servers,
/// more workers than examples, no clocks, a negative push_window or
/// push_parallelism, or more injected delays than workers.
Result<WorkerLoop> PrepareWorkerLoop(const Dataset& dataset,
                                     const LossFunction& loss,
                                     const LearningRateSchedule& schedule,
                                     const TrainSpec& spec);

/// Runs worker `worker` through Algorithm 1 over `client`: one pull, then
/// per clock `workload`'s step (the injected delay included), push,
/// worker 0's evaluation when the loop has a trace, and — when the cached
/// cmin requires it — the admission wait and a pull (or the prefetch
/// started at the clock's top). If the workload names the keys it wrote,
/// a pull passes those since the last one, so the client refreshes the
/// replica in place instead of copying the model. Records worker.iter_us,
/// worker.compute_us and worker.wait_us, and the worker.clock,
/// worker.compute and worker.wait spans. Drains the push window at the
/// end. On every path `*breakdown` receives the client's
/// comm/wait split plus the compute time, which also go to GlobalMetrics()
/// as worker.*_seconds{worker=m} gauges.
Status RunWorker(const WorkerLoop& loop, int worker, Workload* workload,
                 PsClient* client, WorkerTimeBreakdown* breakdown);

}  // namespace hetps

#endif  // HETPS_ENGINE_WORKER_LOOP_H_
