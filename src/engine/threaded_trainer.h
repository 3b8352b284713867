#ifndef HETPS_ENGINE_THREADED_TRAINER_H_
#define HETPS_ENGINE_THREADED_TRAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "core/sync_policy.h"
#include "data/dataset.h"
#include "math/loss.h"
#include "obs/breakdown.h"
#include "ps/partition.h"

namespace hetps {

/// Options for the real multi-threaded runtime (one std::thread per
/// worker against a shared, locked ParameterServer). This is the
/// "production" execution path; the event simulator is the experiment
/// path (see DESIGN.md §5.1).
struct ThreadedTrainerOptions {
  SyncPolicy sync = SyncPolicy::Ssp(3);
  int max_clocks = 20;
  double l2 = 1e-4;
  double batch_fraction = 0.1;
  int num_servers = 2;
  int partitions_per_server = 2;
  PartitionScheme scheme = PartitionScheme::kRangeHash;
  bool partition_sync = false;
  double update_filter_epsilon = 0.0;
  int num_workers = 4;
  /// Injected per-clock sleep per worker (seconds) — the paper's
  /// sleep()-based straggler emulation (§3 Protocol). Empty = none.
  std::vector<double> worker_sleep_seconds;
  /// Examples used per objective evaluation (0 = whole dataset).
  size_t eval_sample = 2000;
  /// Parameter pre-fetching (Appendix D): overlap the SSP admission wait
  /// and the pull with the clock's computation, at the cost of a
  /// slightly staler replica.
  bool prefetch = false;
  /// Version-aware pull path (§6): workers cache partition replicas by
  /// content tag and the PS ships only changed partitions (whole block
  /// or sparse delta, whichever is smaller). Off = the pull sends no
  /// tags, so every partition ships whole, in its cheaper layout.
  bool delta_pull = true;
  /// Asynchronous push pipeline (WorkerClient): 0 = synchronous pushes
  /// (bitwise-identical to the pre-pipeline trainer), >= 1 = bounded
  /// in-flight window (1 = double-buffer: compute clock c+1 while the
  /// push of clock c is in flight).
  int push_window = 0;
  /// Threads applying a push's partition pieces server-side (see
  /// PsOptions::push_parallelism): 1 = serial (default), 0 = auto.
  int push_parallelism = 1;
  uint64_t seed = 11;
  /// Called on worker 0's thread after each of its clocks finishes
  /// (argument: the 1-based clock count). RunReporter::OnEpoch hooks in
  /// here to snapshot metrics mid-run. Keep it cheap — it runs inside
  /// the training loop.
  std::function<void(int)> on_epoch;
};

struct ThreadedTrainResult {
  /// Final global parameter (PS snapshot after all workers finish).
  std::vector<double> weights;
  /// Worker-0 objective after each of its clocks.
  std::vector<double> objective_per_clock;
  double wall_seconds = 0.0;
  int64_t total_pushes = 0;
  double final_objective = 0.0;
  /// Per-worker compute/comm/wait split (wall seconds) — Figure 6's
  /// stacked bars for the real runtime. Also published to
  /// GlobalMetrics() as worker.*_seconds{worker=m} gauges.
  std::vector<WorkerTimeBreakdown> worker_breakdown;
};

/// Runs distributed SGD (Algorithm 1 with the chosen consolidation rule)
/// on real threads. Deterministic in data order; wall time depends on the
/// machine.
ThreadedTrainResult TrainThreaded(const Dataset& dataset,
                                  const LossFunction& loss,
                                  const LearningRateSchedule& schedule,
                                  const ConsolidationRule& rule_proto,
                                  const ThreadedTrainerOptions& options);

}  // namespace hetps

#endif  // HETPS_ENGINE_THREADED_TRAINER_H_
