#ifndef HETPS_SIM_EVENT_SIM_H_
#define HETPS_SIM_EVENT_SIM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "data/dataset.h"
#include "math/loss.h"
#include "obs/breakdown.h"
#include "ps/load_balancer.h"
#include "ps/run_spec.h"
#include "ps/status.h"
#include "sim/cluster_config.h"

namespace hetps {

class TimeSeriesRecorder;

/// Options controlling one simulated training run: RunSpec plus the
/// simulator's own fields, with its own max_clocks (50), seed (7) and
/// push_window (-1). The simulator models the push pipeline: -1 =
/// unbounded overlap (the pre-pipeline comm model, kept as the default
/// so existing results are unchanged), 0 = the worker waits out each
/// push transfer, >= 1 = it stalls only when `push_window` pushes are in
/// flight (the stall is charged to comm, the overlap to
/// push_hidden_seconds). heartbeat_timeout_seconds counts *simulated*
/// seconds; heartbeats ride on every worker event, and a worker parked
/// on the SSP admission gate counts as alive. rebalance excludes passing
/// a `mitigation` baseline to RunSimulation.
struct SimOptions : RunSpec {
  SimOptions() {
    max_clocks = 50;
    seed = 7;
    push_window = -1;
  }

  /// End the simulation when the global objective first reaches the
  /// tolerance; when false the run always lasts max_clocks (used by the
  /// convergence-curve figures).
  bool stop_on_convergence = true;
  double objective_tolerance = 0.2;
  /// The tolerance must hold on this many consecutive evaluations before
  /// the run counts as converged — SGD "converges" when the objective
  /// stays put (§7.1), so a transient dip of an oscillating run must not
  /// count.
  int consecutive_evals_to_converge = 3;
  /// Evaluate the global objective every this many received updates.
  int eval_every_pushes = 10;
  /// Safety limit on simulated time.
  double max_sim_seconds = 1e7;
  /// Record the per-clock objective of worker 0 (a fast worker under the
  /// straggler configs) — the paper's convergence curves.
  bool record_clock_objectives = true;
  /// Called after each of worker 0's clocks with the same hetps.status.v1
  /// cluster snapshot the live service serves over kStatus — source set
  /// to "sim", timestamps in *virtual* microseconds, push/loan/liveness
  /// fields filled from the simulated planes. Runs on the event loop, as
  /// on_epoch does.
  std::function<void(const StatusSnapshot&)> on_status;
  /// When set, the simulator closes one time-series window per worker-0
  /// clock via SnapshotAt, stamped with *virtual* time — so windows line
  /// up with the simulated trace and flight record instead of with the
  /// (milliseconds-long) wall clock of the simulation itself. Workers'
  /// clocks compute on a pool, so a compute.* sample can land one window
  /// after the clock it belongs to. The owner must not also close
  /// windows through RunReporter::OnEpoch (see
  /// RunReporter::UseExternalTimeSeriesClock).
  TimeSeriesRecorder* timeseries = nullptr;
  /// --- Failure injection ---
  /// Crash-stop `kill_worker` just before it starts clock
  /// `kill_at_clock`: it emits no further events — pushes, pulls and
  /// heartbeats all cease. -1 disables.
  int kill_worker = -1;
  int kill_at_clock = -1;
  /// --- Transient congestion episode (exercises the return path) ---
  /// Multiply `slow_worker`'s compute time by `slow_multiplier` for
  /// clocks in [slow_from_clock, slow_until_clock). -1 disables.
  int slow_worker = -1;
  int slow_from_clock = 0;
  int slow_until_clock = 0;
  double slow_multiplier = 1.0;

  /// RunSpec's checks, then a push_window >= -1, a finite
  /// objective_tolerance, a positive max_sim_seconds, a kill_worker,
  /// kill_at_clock and slow_worker >= -1, and a positive finite
  /// slow_multiplier.
  Status Validate() const override;
};

/// Result of one simulated run — every metric the paper reports.
struct SimResult {
  bool converged = false;
  /// Simulated seconds until the objective first reached tolerance
  /// (end-of-run time if it never did).
  double run_time_seconds = 0.0;
  /// Updates the PS received until convergence — statistical efficiency.
  int64_t updates_to_converge = 0;
  /// run_time / updates — hardware efficiency (per-update seconds).
  double per_update_seconds = 0.0;
  int64_t total_pushes = 0;
  double total_sim_seconds = 0.0;

  /// Worker-0 objective after each of its clocks.
  std::vector<double> objective_per_clock;
  /// minobj / varobj (§7.1): mean and variance of the last five entries.
  double min_objective = 0.0;
  double var_objective = 0.0;
  /// First worker-0 clock at which the objective was <= tolerance; -1 if
  /// never.
  int clocks_to_converge = -1;
  double final_objective = 0.0;

  size_t param_memory_bytes = 0;
  size_t peak_aux_memory_bytes = 0;
  /// Largest number of live versions observed on any partition (sampled
  /// at evaluation points) — Theorem 3's cmax - cmin + 1 window.
  size_t peak_live_versions = 0;
  /// Observed mean staleness μ (DynSGD; 1.0 otherwise).
  double mean_staleness = 1.0;

  /// Pull-path comm accounting: content bytes the simulated servers
  /// actually shipped vs. what cache-less pulls would have cost, each
  /// partition's whole block in its cheaper layout (identical when
  /// delta_pull is off).
  int64_t pull_bytes_shipped = 0;
  int64_t pull_bytes_full = 0;

  std::vector<WorkerTimeBreakdown> worker_breakdown;

  /// --- Liveness / failover accounting ---
  /// Workers the heartbeat plane evicted during the run.
  int workers_evicted = 0;
  /// Examples moved off evicted workers' shards onto survivors.
  int64_t examples_failed_over = 0;
  /// Workers still parked on the SSP admission gate when the run ended —
  /// nonzero means the run deadlocked (ended by max_sim_seconds, not by
  /// finishing).
  int workers_blocked_at_end = 0;

  /// --- Load-balancing plane accounting (rebalance = true) ---
  /// Examples migrated off persistent stragglers onto fast workers.
  int64_t examples_rebalanced = 0;
  /// Examples reclaimed by recovered stragglers (the return path).
  int64_t examples_returned = 0;
  /// Individual migration decisions (both directions).
  int64_t rebalance_migrations = 0;

  std::string Summary() const;
};

/// Runs distributed SGD on the simulated cluster: real gradients and real
/// consolidation, simulated computation/transmission/waiting time. See
/// DESIGN.md §2 for why this reproduces the paper's metrics.
///
/// The events run on the calling thread; each worker's gradients for a
/// clock compute on a pool of min(cores, workers) threads between the
/// clock's start and its push. The result is bitwise the same as a
/// serial run (DESIGN.md §6, "The simulator's compute pool").
///
/// `mitigation` may be null; when set it is the run's move policy (the
/// FlexRR-style baseline hooks in here): told every live worker's clock
/// time on the event loop, it decides moves that the run's ShardPlane applies
/// to the entitlements each worker copies in at its next clock start.
///
/// Aborts when options.Validate() or ValidateClusterForDataset (more
/// workers than examples, more servers than features) fails, as on other
/// API misuse.
SimResult RunSimulation(const Dataset& dataset,
                        const ClusterConfig& cluster,
                        const ConsolidationRule& rule_proto,
                        const LearningRateSchedule& schedule,
                        const LossFunction& loss, const SimOptions& options,
                        StragglerMitigation* mitigation = nullptr);

}  // namespace hetps

#endif  // HETPS_SIM_EVENT_SIM_H_
