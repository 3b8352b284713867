#include "engine/distributed_trainer.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "net/ps_service.h"
#include "net/status_gateway.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ps/checkpoint.h"
#include "ps/load_balancer.h"
#include "ps/parameter_server.h"
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

  // --- Shard entitlement plane ------------------------------------------
  // `owned[m]` is worker m's authoritative example entitlement; the
  // worker's local SGD shard is a *copy* it refreshes at clock boundaries.
  // Two service-loop mechanisms mutate entitlements:
  //   - eviction failover (on_evict): the victim's owned[] is round-robined
  //     across the survivors — `owned` mirrors the full entitlement so a
  //     cascading eviction re-fails-over adopted examples exactly once;
  //   - live rebalancing (on_clock_report): the LoadBalancer moves tail
  //     slices from persistent stragglers to fast workers, and back.
  // Both bump `shard_gen[m]`; a worker whose seen generation is stale
  // copies owned[m] into its SGD shard before the next clock, so grows
  // AND shrinks land atomically at clock boundaries — a batch never
  // changes mid-compute and SSP admission is untouched.
  const size_t n_workers = static_cast<size_t>(options.num_workers);
  std::vector<std::unique_ptr<SgdWorkload>> workloads;
  for (int m = 0; m < options.num_workers; ++m) {
    workloads.push_back(std::make_unique<SgdWorkload>(loop, m));
  }
  std::mutex failover_mu;
  std::vector<std::vector<size_t>> owned(n_workers);
  std::vector<uint64_t> shard_gen(n_workers, 0);  // guarded by failover_mu
  std::vector<uint64_t> seen_gen(n_workers, 0);   // guarded by failover_mu
  for (size_t m = 0; m < n_workers; ++m) {
    owned[m] = loop.shards[m].example_indices;
  }
  std::unique_ptr<std::atomic<bool>[]> evicted(
      new std::atomic<bool>[n_workers]);
  for (size_t m = 0; m < n_workers; ++m) evicted[m].store(false);
  std::vector<int> evicted_order;             // guarded by failover_mu
  int64_t shard_reassignments = 0;            // guarded by failover_mu
  int64_t examples_failed_over = 0;           // guarded by failover_mu

  std::unique_ptr<LoadBalancer> lb;
  if (options.rebalance) {
    lb = std::make_unique<LoadBalancer>(options.num_workers,
                                        options.balancer);
  }

  PsServiceOptions svc_opts;
  if (lb != nullptr) {
    // Runs on the single service-loop thread after the master's straggler
    // statistics absorbed the report; entitlement edits land under
    // failover_mu and workers pick them up at their next clock boundary.
    svc_opts.on_clock_report = [&](int worker, int clock, double seconds) {
      std::lock_guard<std::mutex> lock(failover_mu);
      std::vector<size_t> sizes(n_workers);
      for (size_t m = 0; m < n_workers; ++m) sizes[m] = owned[m].size();
      const std::vector<ShardMove> moves =
          lb->OnClockReport(worker, clock, seconds, ps.master(), sizes);
      for (const ShardMove& mv : moves) {
        std::vector<size_t>& src = owned[static_cast<size_t>(mv.from)];
        std::vector<size_t>& dst = owned[static_cast<size_t>(mv.to)];
        const size_t count = std::min(mv.count, src.size());
        if (count == 0) continue;
        dst.insert(dst.end(), src.end() - static_cast<std::ptrdiff_t>(count),
                   src.end());
        src.resize(src.size() - count);
        ++shard_gen[static_cast<size_t>(mv.from)];
        ++shard_gen[static_cast<size_t>(mv.to)];
      }
    };
  }
  svc_opts.liveness.heartbeat_timeout_seconds =
      options.heartbeat_timeout_seconds;
  svc_opts.liveness.evict_dead_workers = options.evict_dead_workers;
  svc_opts.liveness.on_evict = [&](int victim) {
    std::lock_guard<std::mutex> lock(failover_mu);
    evicted[static_cast<size_t>(victim)].store(true,
                                               std::memory_order_release);
    evicted_order.push_back(victim);
    // The victim's entitlement (borrowed examples included) is spread
    // below; its loan-ledger entries can never be repaid.
    if (lb != nullptr) lb->OnWorkerEvicted(victim);
    std::vector<size_t> orphans =
        std::move(owned[static_cast<size_t>(victim)]);
    owned[static_cast<size_t>(victim)].clear();
    ++shard_gen[static_cast<size_t>(victim)];
    std::vector<size_t> survivors;
    for (size_t m = 0; m < n_workers; ++m) {
      if (!evicted[m].load(std::memory_order_acquire)) survivors.push_back(m);
    }
    if (survivors.empty() || orphans.empty()) return;
    for (size_t i = 0; i < orphans.size(); ++i) {
      const size_t r = survivors[i % survivors.size()];
      owned[r].push_back(orphans[i]);
    }
    for (size_t r : survivors) ++shard_gen[r];
    const int64_t touched = static_cast<int64_t>(
        std::min(survivors.size(), orphans.size()));
    shard_reassignments += touched;
    examples_failed_over += static_cast<int64_t>(orphans.size());
    GlobalMetrics()
        .counter("ps.shard_reassignments")
        ->Increment(touched);
    HETPS_TRACE_INSTANT1("ps.shard_failover", "worker", victim);
    FlightRecorder::Global().Record(
        "shard_failover", victim, /*clock=*/-1,
        static_cast<double>(orphans.size()));
    HETPS_LOG(Info) << "failover: worker " << victim << "'s "
                    << orphans.size() << " examples spread across "
                    << survivors.size() << " survivors";
  };

  // Enrich kStatus snapshots with trainer-plane state the PS alone cannot
  // see: the configured push window and the load balancer's loan ledger /
  // migration totals. Runs on the service loop; the ledger is read under
  // failover_mu, the same lock that serializes every other LoadBalancer
  // access.
  svc_opts.status_decorator = [&](StatusSnapshot* snap) {
    snap->push_window = options.push_window;
    std::lock_guard<std::mutex> lock(failover_mu);
    if (lb == nullptr) return;
    snap->examples_moved = lb->examples_moved();
    snap->examples_returned = lb->examples_returned();
    snap->migrations = lb->migrations();
    for (WorkerStatus& w : snap->workers) {
      if (w.worker >= 0 && w.worker < static_cast<int>(n_workers)) {
        w.loans_out = static_cast<int64_t>(lb->OutstandingLoans(w.worker));
      }
    }
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
  planes.evicted = [&evicted](int m) {
    return evicted[static_cast<size_t>(m)].load(std::memory_order_acquire);
  };
  planes.refresh_shard = [&](int m) {
    const size_t mi = static_cast<size_t>(m);
    std::lock_guard<std::mutex> lock(failover_mu);
    if (seen_gen[mi] == shard_gen[mi]) return;
    workloads[mi]->mutable_shard()->example_indices = owned[mi];
    seen_gen[mi] = shard_gen[mi];
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
  {
    // Workers have joined, but the service loop (which runs on_evict) is
    // still live until `bus` is destroyed — snapshot under the lock.
    std::lock_guard<std::mutex> lock(failover_mu);
    result.evicted_workers = evicted_order;
    result.shard_reassignments = shard_reassignments;
    result.examples_failed_over = examples_failed_over;
    if (lb != nullptr) {
      result.examples_rebalanced = lb->examples_moved();
      result.examples_returned = lb->examples_returned();
      result.lb_migrations = lb->migrations();
    }
  }
  return result;
}

}  // namespace hetps
