#include "engine/distributed_trainer.h"

#include <memory>
#include <numeric>
#include <thread>
#include <utility>

#include "net/ps_service.h"
#include "net/status_gateway.h"
#include "obs/flight_recorder.h"
#include "ps/checkpoint.h"
#include "ps/parameter_server.h"
#include "ps/shard_plane.h"
#include "util/logging.h"

namespace hetps {

Result<DistributedTrainResult> TrainDistributed(
    const Dataset& dataset, const LossFunction& loss,
    const LearningRateSchedule& schedule,
    const ConsolidationRule& rule_proto,
    const DistributedTrainerOptions& options) {
  Result<WorkerLoop> prepared =
      PrepareWorkerLoop(dataset, loss, schedule, options);
  if (!prepared.ok()) return prepared.status();
  WorkerLoop& loop = prepared.value();
  if (options.resume && options.resume_clock < 0) {
    return Status::InvalidArgument("resume_clock must be >= 0");
  }
  if (options.fault_plan.fault_worker >= options.num_workers) {
    return Status::InvalidArgument("fault_worker out of range");
  }
  if (options.rebalance) HETPS_RETURN_NOT_OK(options.balancer.Validate());

  PsOptions ps_opts;
  ps_opts.num_servers = options.num_servers;
  ps_opts.sync = options.sync;
  ps_opts.partition_sync = options.partition_sync;
  ps_opts.push_parallelism = options.push_parallelism;
  ParameterServer ps(dataset.dimension(), options.num_workers, rule_proto,
                     ps_opts);
  if (options.resume) {
    HETPS_RETURN_NOT_OK(
        RestoreCheckpointFromFile(&ps, options.checkpoint_path));
  }

  MessageBus bus;
  if (options.fault_plan.enabled()) {
    bus.SetFaultPlan(options.fault_plan);
  }

  // Every example move goes through `plane`: eviction failover (on_evict)
  // and live rebalancing (on_clock_report) edit entitlements on the
  // service loop, and each worker copies its changed entitlement into its
  // shard at its next clock boundary (refresh_shard), so a batch never
  // changes mid-compute and SSP admission is untouched.
  const size_t n_workers = static_cast<size_t>(options.num_workers);
  std::vector<std::unique_ptr<SgdWorkload>> workloads;
  for (int m = 0; m < options.num_workers; ++m) {
    workloads.push_back(std::make_unique<SgdWorkload>(loop, m));
  }
  ShardPlane plane(loop.shards,
                   options.rebalance ? &options.balancer : nullptr);
  PsServiceOptions svc_opts;
  if (options.rebalance) {
    // Runs on the service loop after the master's straggler statistics
    // absorbed the report.
    svc_opts.on_clock_report = [&](int worker, int clock, double seconds) {
      plane.OnClockReport(worker, clock, seconds, ps.master());
    };
  }
  svc_opts.liveness.heartbeat_timeout_seconds =
      options.heartbeat_timeout_seconds;
  svc_opts.liveness.evict_dead_workers = options.evict_dead_workers;
  std::vector<int> everyone(n_workers);
  std::iota(everyone.begin(), everyone.end(), 0);
  svc_opts.liveness.on_evict = [&](int victim) {
    plane.Evict(victim, everyone);  // the plane skips evicted workers
  };
  // Enrich kStatus snapshots with trainer-plane state the PS alone cannot
  // see: the configured push window and the load balancer's loan ledger /
  // migration totals.
  svc_opts.status_decorator = [&](StatusSnapshot* snap) {
    snap->push_window = options.push_window;
    plane.DecorateStatus(snap);
  };

  PsService service(&ps, &bus, "ps", svc_opts);
  HETPS_RETURN_NOT_OK(service.status());

  // Declared after `bus` and `service` so it stops (joining its thread,
  // which calls into the bus) before either is torn down.
  StatusGateway gateway;
  if (!options.serve_status_path.empty()) {
    HETPS_RETURN_NOT_OK(
        gateway.Start(options.serve_status_path, &bus, "ps"));
    HETPS_LOG(Info) << "introspection gateway listening on "
                    << options.serve_status_path;
  }
  // The planes the worker loop serves at clock boundaries.
  Status checkpoint_status;  // written only by worker 0
  BusPlanes planes;
  planes.faults = options.fault_plan;
  planes.liveness_now = [&service] { return service.LivenessNow(); };
  planes.evicted = [&plane](int m) { return plane.evicted(m); };
  planes.refresh_shard = [&](int m) {
    plane.Refresh(m, workloads[static_cast<size_t>(m)]->mutable_shard());
  };
  planes.report_clock = options.rebalance;
  if (options.checkpoint_every_clocks > 0) {
    planes.after_eval = [&](int clocks_run) {
      if (clocks_run % options.checkpoint_every_clocks != 0) return;
      // Checkpointing runs beside live traffic; the PS serializes shard
      // access internally.
      const Status st = SaveCheckpointToFile(ps, options.checkpoint_path);
      if (!st.ok()) checkpoint_status = st;
    };
  }

  DistributedTrainResult result;
  loop.start_clock = options.resume ? options.resume_clock : 0;
  loop.trace = &result.objective_per_clock;
  loop.planes = &planes;
  // Per-worker slots, each written only by its own thread before join.
  std::vector<Status> worker_status(n_workers);
  std::vector<int64_t> worker_retries(n_workers, 0);
  result.worker_breakdown.resize(n_workers);
  std::vector<std::thread> threads;
  for (int m = 0; m < options.num_workers; ++m) {
    threads.emplace_back([&, m] {
      const size_t mi = static_cast<size_t>(m);
      RpcWorkerClient client(m, &bus, "ps", options.rpc_retry,
                             options.push_window, options.delta_pull);
      worker_status[mi] = RunWorker(loop, m, workloads[mi].get(), &client,
                                    &result.worker_breakdown[mi]);
      worker_retries[mi] = client.retry_count();
    });
  }
  for (auto& t : threads) t.join();
  for (size_t m = 0; m < worker_status.size(); ++m) {
    if (!worker_status[m].ok()) {
      // Abnormal worker exit: capture the black box before the error
      // propagates (the caller may tear the process down).
      FlightRecorder::Global().Record("worker_error",
                                      static_cast<int>(m));
      FlightRecorder::Global().DumpNow("worker_error");
      return worker_status[m];
    }
  }
  HETPS_RETURN_NOT_OK(checkpoint_status);

  result.weights = ps.Snapshot();
  result.final_objective = loop.Objective(result.weights);
  result.messages = bus.delivered_count();
  result.faults = bus.fault_stats();
  for (int64_t r : worker_retries) result.rpc_retries += r;
  result.next_clock = loop.start_clock + options.max_clocks;
  // Workers have joined, but the service loop (which runs on_evict) is
  // still live until `bus` is destroyed; Totals reads under the plane's
  // lock.
  ShardPlaneTotals moved = plane.Totals();
  result.evicted_workers = std::move(moved.evicted_workers);
  result.shard_reassignments = moved.shard_reassignments;
  result.examples_failed_over = moved.examples_failed_over;
  result.examples_rebalanced = moved.examples_rebalanced;
  result.examples_returned = moved.examples_returned;
  result.lb_migrations = moved.migrations;
  return result;
}

}  // namespace hetps
