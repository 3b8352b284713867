#ifndef HETPS_ENGINE_WORKER_LOOP_H_
#define HETPS_ENGINE_WORKER_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/learning_rate.h"
#include "core/sgd_compute.h"
#include "data/dataset.h"
#include "data/sharding.h"
#include "engine/workload.h"
#include "math/loss.h"
#include "net/message_bus.h"
#include "obs/breakdown.h"
#include "ps/ps_client.h"
#include "ps/run_spec.h"
#include "util/status.h"

namespace hetps {

/// The options both real trainers add to RunSpec, with the same meaning
/// and default. ThreadedTrainerOptions and DistributedTrainerOptions
/// extend it with what only their runtime has.
struct TrainSpec : RunSpec {
  int num_workers = 4;
  int num_servers = 2;
  /// Threads applying a push's partition pieces server-side (see
  /// PsOptions::push_parallelism): 1 = serial (default), 0 = auto.
  int push_parallelism = 1;
  /// Per-worker injected compute delay in wall seconds per clock — the
  /// paper's sleep()-based straggler emulation (§3 Protocol). Empty =
  /// none; shorter than num_workers is zero-padded.
  std::vector<double> injected_compute_delay;

  /// RunSpec's checks, then: positive worker and server counts, a
  /// push_window and push_parallelism >= 0, and at most num_workers
  /// finite, non-negative injected delays.
  Status Validate() const override;
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
  /// The ParameterServer both trainers build: the spec's options, with
  /// the range schemes cut at the keys the dataset holds.
  PsOptions ps_options;
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

/// spec.Validate(), then ValidateClusterForDataset: InvalidArgument
/// unless `dataset` has an example per worker and a feature per server.
Status ValidateForDataset(const TrainSpec& spec, const Dataset& dataset);

/// Runs ValidateForDataset and prepares the run's shards, delays and
/// server options, whose range cuts (Partitioner::HeldKeyCuts) give each
/// partition an equal share of the features the dataset holds.
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
