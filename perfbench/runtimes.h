#ifndef HETPS_PERFBENCH_RUNTIMES_H_
#define HETPS_PERFBENCH_RUNTIMES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "data/dataset.h"
#include "engine/distributed_trainer.h"
#include "engine/threaded_trainer.h"
#include "math/loss.h"
#include "obs/breakdown.h"
#include "sim/cluster_config.h"
#include "sim/event_sim.h"
#include "spans.h"

namespace perfbench {

enum class Runtime { kThreaded, kRpc, kSim };

/// One benchmark workload: the runtime it drives, its size, and the
/// thresholds its outputs are checked against.
struct WorkloadSpec {
  const char* name;
  Runtime runtime;
  /// Worker clocks per training run (the simulator's max_clocks).
  int clocks;
  /// Objective target of time_to_target_s and updates_to_target.
  double target;
  /// final_objective must be at or below this.
  double objective_ceiling;
};

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Everything a training run needs, generated from the workload seed.
struct Setup {
  hetps::Dataset dataset;
  std::unique_ptr<hetps::LossFunction> loss;
  std::unique_ptr<hetps::LearningRateSchedule> schedule;
  std::unique_ptr<hetps::ConsolidationRule> rule;
  hetps::ThreadedTrainerOptions threaded;
  hetps::DistributedTrainerOptions rpc;
  hetps::SimOptions sim;
  hetps::ClusterConfig cluster;
  int workers = 0;
};
Setup MakeSetup(const WorkloadSpec& spec, uint64_t seed);

/// One untraced training run through the runtime's public entry point
/// (TrainThreaded, TrainDistributed or RunSimulation).
struct EngineRun {
  bool ok = true;
  std::string error;
  double wall_s = 0.0;
  /// Worker clocks the run was asked for, and the ones it completed.
  int64_t clocks_attempted = 0;
  int64_t clocks = 0;
  /// Worker-0 objective after each of its clocks.
  std::vector<double> objectives;
  /// Wall duration of each worker-0 clock but the first, from the
  /// on_epoch timestamps (the first also holds the runtime's start-up).
  /// On the simulator: wall time per simulated worker clock, over spans
  /// of at least one simulated clock per worker.
  std::vector<double> clock_ms;
  /// Seconds and PS updates until worker 0's objective first held the
  /// target for three consecutive clocks; negative when it never did.
  /// Simulated seconds on the simulator.
  double time_to_target_s = -1.0;
  int64_t updates_to_target = -1;
  double final_objective = 0.0;
  /// Weights and objectives are all finite.
  bool finite = true;
  /// Per-worker compute/comm/wait and the worker-time they are shares
  /// of (wall or simulated seconds times workers).
  std::vector<hetps::WorkerTimeBreakdown> breakdown;
  double worker_seconds = 0.0;
  hetps::SimResult sim;
};
EngineRun RunEngine(const WorkloadSpec& spec, const Setup& setup,
                    int clocks);

/// One run of the benchmark's copy of a real runtime's worker loop (the
/// engine's loop, minus options no workload sets), calling the same
/// public layer functions. With `spans`, each worker records into its own
/// buffer; without, nothing is recorded.
struct LoopRun {
  bool ok = true;
  std::string error;
  double wall_s = 0.0;
  int64_t clocks = 0;
  int64_t nnz = 0;    // ClockStats::nnz_processed, summed
  int64_t pulls = 0;  // pulls that refreshed a replica
  int64_t pulled_bytes = 0;
  int64_t pulled_bytes_full = 0;
  bool finite = true;
};
LoopRun RunWorkerLoop(const WorkloadSpec& spec, const Setup& setup,
                      std::vector<SpanBuffer>* spans);

/// Replays the simulated run's compute in spans: every worker's
/// LocalWorkerSgd::RunClock over its shard for the clocks it completed,
/// then as many Dataset::ObjectiveSample calls as the simulator makes.
/// Returns the summed nnz the replayed clocks processed.
int64_t ReplaySimCompute(const Setup& setup, const hetps::SimResult& result,
                         SpanBuffer* spans);

}  // namespace perfbench

#endif  // HETPS_PERFBENCH_RUNTIMES_H_
