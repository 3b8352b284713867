#ifndef HETPS_PS_RUN_SPEC_H_
#define HETPS_PS_RUN_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "core/sync_policy.h"
#include "data/dataset.h"
#include "ps/load_balancer.h"
#include "ps/parameter_server.h"
#include "ps/partition.h"
#include "util/status.h"

namespace hetps {

/// The options all three runtimes share, each declared once: the threaded
/// and RPC trainers extend it as TrainSpec (src/engine), the event
/// simulator as SimOptions (src/sim). A derived struct sets a default that
/// differs for its runtime in its constructor and checks its own fields in
/// its Validate() override, after the base's.
struct RunSpec {
  /// Algorithm 1's protocol and staleness s.
  SyncPolicy sync = SyncPolicy::Ssp(3);
  /// Clocks each worker runs.
  int max_clocks = 20;
  double l2 = 1e-4;
  /// Mini-batch size as a fraction of each worker's shard (§7.1: 10%).
  double batch_fraction = 0.1;
  /// Version-based partition synchronization through the master (§6);
  /// effective with a deferred-mode DynSGD rule.
  bool partition_sync = false;
  /// Examples used per objective evaluation (0 = whole dataset).
  size_t eval_sample = 2000;
  /// The simulator's randomness; the real trainers do not read it.
  uint64_t seed = 11;
  /// Version-aware pull path (§6): the pull sends the client's cached
  /// tags, so the PS ships only changed partitions (whole block or
  /// sparse delta, whichever is smaller). Off = no tags, so every
  /// partition ships whole, in its cheaper layout.
  bool delta_pull = true;
  /// Push pipeline: 0 = synchronous pushes, >= 1 = bounded in-flight
  /// window (1 = compute clock c+1 while the push of clock c is in
  /// flight). The simulator also takes -1 (SimOptions).
  int push_window = 0;
  /// Called after each of worker 0's clocks (1-based count).
  /// RunReporter::OnEpoch hooks in here to snapshot metrics mid-run. Keep
  /// it cheap: it runs inside the training loop.
  std::function<void(int)> on_epoch;
  /// The parameter layout (§6 "Parameter Partition").
  int partitions_per_server = 1;
  PartitionScheme scheme = PartitionScheme::kRangeHash;
  /// Client-side filter: drop |x| <= epsilon update entries before the
  /// push (§5.3); 0 disables.
  double update_filter_epsilon = 0.0;
  /// --- Liveness plane (the RPC runtime and the simulator) ---
  /// Evict a worker whose last request or event is older than this many
  /// seconds of the runtime's liveness clock. 0 disables the plane, so
  /// one dead worker pins cmin forever.
  double heartbeat_timeout_seconds = 0.0;
  /// When false, dead workers are only counted as suspected, never
  /// evicted (A/B knob for demonstrating the deadlock).
  bool evict_dead_workers = true;
  /// --- Load-balancing plane (the RPC runtime and the simulator) ---
  /// Migrate examples from persistent stragglers to fast workers at
  /// clock boundaries through the run's ShardPlane.
  bool rebalance = false;
  LoadBalancerOptions balancer;

  /// InvalidArgument naming the first field out of range, OK otherwise.
  /// Every runtime runs it before any work: PrepareWorkerLoop (so both
  /// trainers), RunSimulation and LinearModel::Train.
  virtual Status Validate() const;

  /// The parameter server's options for this run on `num_servers`
  /// servers, with PsOptions::push_parallelism `push_parallelism`.
  PsOptions MakePsOptions(int num_servers, int push_parallelism) const;

 protected:
  /// InvalidArgument "<what>, got <value>", for the Validate() overrides.
  /// It formats the value only on failure, so a valid spec costs no
  /// stream.
  static Status Invalid(const std::string& what, double value);
};

/// InvalidArgument unless `dataset` holds an example for each of
/// `num_workers` workers and a feature for each of `num_servers`
/// servers: the dataset check of every runtime (ValidateForDataset for
/// both trainers, RunSimulation, and the CLI's `simulate`).
Status ValidateClusterForDataset(int num_workers, int num_servers,
                                 const Dataset& dataset);

}  // namespace hetps

#endif  // HETPS_PS_RUN_SPEC_H_
