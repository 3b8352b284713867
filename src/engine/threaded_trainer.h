#ifndef HETPS_ENGINE_THREADED_TRAINER_H_
#define HETPS_ENGINE_THREADED_TRAINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "data/dataset.h"
#include "engine/worker_loop.h"
#include "engine/workload.h"
#include "math/loss.h"
#include "obs/breakdown.h"
#include "ps/parameter_server.h"
#include "util/status.h"

namespace hetps {

/// Options for the real multi-threaded runtime (one std::thread per
/// worker against a shared, locked ParameterServer). This is the
/// "production" execution path; the event simulator is the experiment
/// path (see DESIGN.md §5.1).
struct ThreadedTrainerOptions : TrainSpec {
  ThreadedTrainerOptions() { partitions_per_server = 2; }

  /// Parameter pre-fetching (Appendix D): overlap the SSP admission wait
  /// and the pull with the clock's computation, at the cost of a
  /// slightly staler replica.
  bool prefetch = false;

  /// TrainSpec's checks, then refuses the planes this runtime lacks:
  /// rebalancing and a positive heartbeat timeout.
  Status Validate() const override;
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
/// on real threads, each running RunWorker over a WorkerClient.
/// Deterministic in data order; wall time depends on the machine. Aborts
/// on options Validate() rejects, on too few examples and on a worker
/// error.
ThreadedTrainResult TrainThreaded(const Dataset& dataset,
                                  const LossFunction& loss,
                                  const LearningRateSchedule& schedule,
                                  const ConsolidationRule& rule_proto,
                                  const ThreadedTrainerOptions& options);

/// The models' run (src/models) on TrainThreaded's start-up: one thread
/// per worker m runs RunWorker over a WorkerClient of `ps`, driving
/// workloads[m] through clocks [1, max_clocks] under the PS's sync
/// policy. Clock 0 is the caller's initialization push; no delay is
/// injected and no objective curve recorded. Returns the first failed
/// worker's status.
Status RunModelWorkers(ParameterServer* ps, int max_clocks,
                       const std::vector<std::unique_ptr<Workload>>& workloads);

}  // namespace hetps

#endif  // HETPS_ENGINE_THREADED_TRAINER_H_
