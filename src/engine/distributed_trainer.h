#ifndef HETPS_ENGINE_DISTRIBUTED_TRAINER_H_
#define HETPS_ENGINE_DISTRIBUTED_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "data/dataset.h"
#include "engine/worker_loop.h"
#include "math/loss.h"
#include "net/message_bus.h"
#include "net/ps_service.h"
#include "obs/breakdown.h"
#include "util/status.h"

namespace hetps {

/// The fully-distributed execution path: worker threads run RunWorker
/// over an RpcWorkerClient, so they talk to the parameter-server service
/// exclusively through the serialized message bus (src/net) — no
/// shared-memory shortcut — with optional periodic checkpointing for
/// failure recovery. This mirrors the deployed
/// prototype's architecture (Appendix D) as closely as an in-process
/// build can. Its liveness plane counts heartbeat_timeout_seconds on
/// PsService's request tick (1 ms per request handled), so detection
/// needs no wall-clock sleeps.
struct DistributedTrainerOptions : TrainSpec {
  /// Write a checkpoint every N clocks of worker 0 (0 = never).
  int checkpoint_every_clocks = 0;
  std::string checkpoint_path = "/tmp/hetps_distributed.ckpt";
  /// Resume from `checkpoint_path` before training (workers re-pull and
  /// continue from `resume_clock`).
  bool resume = false;
  int resume_clock = 0;
  /// Deterministic fault injection on the bus (drops/delays/duplicates).
  /// With the default retry policy the run converges through a lossy
  /// bus; see DESIGN.md "Concurrency & fault model".
  FaultPlan fault_plan = FaultPlan::None();
  /// Per-RPC timeout/backoff for the worker clients.
  RpcRetryPolicy rpc_retry = RpcRetryPolicy();
  /// Unix-socket path for the live-introspection gateway. When non-empty,
  /// a StatusGateway is bound here for the lifetime of the run so
  /// external tools (`hetps_train top` / `dump-status` / `obs-ctl`) can
  /// issue kStatus / kMetricsScrape / kObsControl against the running
  /// service. Empty = no gateway.
  std::string serve_status_path;

  /// TrainSpec's checks, then a resume_clock >= 0 when resuming and a
  /// fault_worker the run has.
  Status Validate() const override;
};

struct DistributedTrainResult {
  std::vector<double> weights;
  std::vector<double> objective_per_clock;  // worker 0
  double final_objective = 0.0;
  int64_t messages = 0;
  /// Faults the bus injected during the run (all zero without a plan).
  FaultStats faults;
  /// RPC attempts beyond the first, summed over all worker clients.
  int64_t rpc_retries = 0;
  /// Clock after the last one executed (pass as resume_clock).
  int next_clock = 0;
  /// Per-worker compute/comm/wait split (wall seconds) — Figure 6 for
  /// the RPC runtime. Comm covers push, pull and clock-report RPCs
  /// (retries included); wait covers the CanAdvance polling loop. Also
  /// published to GlobalMetrics() as worker.*_seconds{worker=m} gauges.
  std::vector<WorkerTimeBreakdown> worker_breakdown;
  /// Workers evicted by the heartbeat plane, in eviction order.
  std::vector<int> evicted_workers;
  /// Receiver shards that adopted examples from evicted workers.
  int64_t shard_reassignments = 0;
  /// Examples moved off evicted workers' shards onto survivors.
  int64_t examples_failed_over = 0;
  /// --- Load-balancing plane accounting (rebalance = true) ---
  /// Examples migrated off persistent stragglers onto fast workers.
  int64_t examples_rebalanced = 0;
  /// Examples reclaimed by recovered stragglers (the return path).
  int64_t examples_returned = 0;
  /// Individual migration decisions (both directions).
  int64_t lb_migrations = 0;
};

Result<DistributedTrainResult> TrainDistributed(
    const Dataset& dataset, const LossFunction& loss,
    const LearningRateSchedule& schedule,
    const ConsolidationRule& rule_proto,
    const DistributedTrainerOptions& options);

}  // namespace hetps

#endif  // HETPS_ENGINE_DISTRIBUTED_TRAINER_H_
