#include "engine/distributed_trainer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "core/sgd_compute.h"
#include "data/sharding.h"
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
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (options.num_workers <= 0 || options.num_servers <= 0) {
    return Status::InvalidArgument("need positive worker/server counts");
  }
  if (options.max_clocks <= 0) {
    return Status::InvalidArgument("max_clocks must be positive");
  }
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

  const std::vector<DataShard> shards =
      SplitData(dataset.size(), static_cast<size_t>(options.num_workers),
                ShardingPolicy::kContiguous);

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
  std::mutex failover_mu;
  std::vector<std::vector<size_t>> owned(n_workers);
  std::vector<uint64_t> shard_gen(n_workers, 0);  // guarded by failover_mu
  for (size_t m = 0; m < n_workers; ++m) {
    owned[m] = shards[m].example_indices;
  }
  std::unique_ptr<std::atomic<bool>[]> evicted(
      new std::atomic<bool>[n_workers]);
  for (size_t m = 0; m < n_workers; ++m) evicted[m].store(false);
  std::vector<int> evicted_order;             // guarded by failover_mu
  int64_t shard_reassignments = 0;            // guarded by failover_mu
  int64_t examples_failed_over = 0;           // guarded by failover_mu

  std::unique_ptr<LoadBalancer> lb;
  if (options.rebalance) {
    LoadBalancerOptions lb_opts;
    lb_opts.straggler_threshold = options.straggler_threshold;
    lb_opts.hysteresis = options.rebalance_hysteresis;
    lb_opts.reassign_fraction = options.reassign_fraction;
    lb_opts.max_examples_per_round = options.rebalance_max_per_round;
    lb_opts.min_shard_size = options.rebalance_min_shard;
    lb_opts.recovery_windows = options.rebalance_recovery_windows;
    lb = std::make_unique<LoadBalancer>(options.num_workers, lb_opts);
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
  svc_opts.liveness.heartbeat_timeout_seconds = options.heartbeat_timeout;
  svc_opts.liveness.evict_dead_workers = options.evict_dead_workers;
  svc_opts.liveness.virtual_seconds_per_request =
      options.virtual_seconds_per_request;
  svc_opts.liveness.now_fn = options.heartbeat_now_fn;
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
  const int start_clock = options.resume ? options.resume_clock : 0;
  const int end_clock = start_clock + options.max_clocks;

  std::vector<double> trace;           // worker-0 objective per clock
  Status checkpoint_status;            // written only by worker 0
  std::vector<Status> worker_status(
      static_cast<size_t>(options.num_workers));
  std::vector<int64_t> worker_retries(
      static_cast<size_t>(options.num_workers), 0);
  // Per-worker slots, each written only by its own thread before join.
  std::vector<WorkerTimeBreakdown> breakdowns(
      static_cast<size_t>(options.num_workers));

  auto worker_body = [&](int m) {
    using SteadyClock = std::chrono::steady_clock;
    auto seconds_since = [](SteadyClock::time_point start) {
      return std::chrono::duration<double>(SteadyClock::now() - start)
          .count();
    };
    Status& my_status = worker_status[static_cast<size_t>(m)];
    WorkerTimeBreakdown& breakdown = breakdowns[static_cast<size_t>(m)];
    // An RPC rejected because *this* worker was evicted is the liveness
    // plane working as designed (e.g. a hung worker waking up after its
    // eviction), not a run failure: clear the status so the run's
    // verdict comes from the survivors.
    const auto evicted_by_design = [&]() {
      return my_status.IsFailedPrecondition() &&
             evicted[static_cast<size_t>(m)].load(
                 std::memory_order_acquire);
    };
    HistogramMetric* iter_us = GlobalMetrics().histogram(
        "worker.iter_us", {{"worker", std::to_string(m)}});
    // Live per-clock phase histograms: the end-of-run breakdown gauges
    // only show totals, but the TimeSeriesRecorder needs per-window
    // deltas to draw a straggler's wait time *diverging over time*.
    HistogramMetric* wait_us = GlobalMetrics().histogram(
        "worker.wait_us", {{"worker", std::to_string(m)}});
    HistogramMetric* compute_us = GlobalMetrics().histogram(
        "worker.compute_us", {{"worker", std::to_string(m)}});
    TraceRecorder::Global().NameThisThread("worker-" +
                                           std::to_string(m));
    RpcWorkerClient client(m, &bus, "ps", options.rpc_retry,
                           options.push_window, options.delta_pull);
    LocalWorkerSgd::Options sgd_opts;
    sgd_opts.batch_size = LocalWorkerSgd::BatchSizeForFraction(
        shards[static_cast<size_t>(m)].size(), options.batch_fraction);
    sgd_opts.l2 = options.l2;
    LocalWorkerSgd sgd(&dataset, shards[static_cast<size_t>(m)], &loss,
                       &schedule, sgd_opts);
    // Entitlement generation this worker's SGD shard reflects; refreshed
    // from owned[m] at clock boundaries when the service loop moved
    // examples (failover or rebalancing).
    uint64_t seen_gen = 0;
    const double injected_delay =
        static_cast<size_t>(m) < options.injected_compute_delay.size()
            ? options.injected_compute_delay[static_cast<size_t>(m)]
            : 0.0;
    // A (re)starting worker pulls the latest parameter from the PS.
    std::vector<double> replica;
    int cp = 0;
    {
      const auto pull_start = SteadyClock::now();
      my_status = client.PullCached(&replica, &cp);
      breakdown.comm_seconds += seconds_since(pull_start);
    }
    if (!my_status.ok()) {
      if (evicted_by_design()) my_status = Status::OK();
      return;
    }
    for (int c = start_clock; c < end_clock; ++c) {
      // Injected process faults (FaultPlan.fault_worker), applied just
      // before this clock starts.
      if (m == options.fault_plan.fault_worker &&
          c == options.fault_plan.kill_at_clock) {
        if (options.fault_plan.hang_seconds > 0.0) {
          // Temporary hang: go silent for hang_seconds of virtual time.
          // The clock only advances while other workers' requests tick
          // the service, so this needs no wall-clock sleep. Own-eviction
          // is an exit condition — once evicted, ticks may stop (the
          // survivors finish) and the resume time would never arrive.
          FlightRecorder::Global().Record(
              "fault.hang", m, c, options.fault_plan.hang_seconds);
          const double resume_at =
              service.LivenessNow() + options.fault_plan.hang_seconds;
          while (service.LivenessNow() < resume_at &&
                 !evicted[static_cast<size_t>(m)].load(
                     std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        } else {
          // Crash-stop: the worker simply stops sending, forever. Not an
          // error — the run's verdict is the survivors' business.
          HETPS_LOG(Warning) << "fault injection: killing worker " << m
                             << " before clock " << c;
          FlightRecorder::Global().Record("fault.kill", m, c);
          return;
        }
      }
      // Refresh the SGD shard from the owned[] entitlement when the
      // service loop changed it (eviction failover or rebalancing) —
      // copied at clock boundaries so a batch never changes mid-compute.
      {
        std::lock_guard<std::mutex> lock(failover_mu);
        const uint64_t gen = shard_gen[static_cast<size_t>(m)];
        if (gen != seen_gen) {
          sgd.mutable_shard()->example_indices =
              owned[static_cast<size_t>(m)];
          seen_gen = gen;
        }
      }
      HETPS_TRACE_SPAN2("worker.clock", "worker", m, "clock", c);
      const auto iter_start = SteadyClock::now();
      SparseVector update;
      double compute_secs = 0.0;
      {
        HETPS_TRACE_SPAN1("worker.compute", "worker", m);
        const auto compute_start = SteadyClock::now();
        if (injected_delay > 0.0) {
          // The paper's slowdown-injection protocol: the straggler's
          // clock really takes longer, so the timing report below and
          // every downstream straggler decision see a genuine slowdown.
          std::this_thread::sleep_for(
              std::chrono::duration<double>(injected_delay));
        }
        sgd.RunClock(c, &replica, &update);
        compute_secs = seconds_since(compute_start);
        breakdown.compute_seconds += compute_secs;
        compute_us->RecordInt(static_cast<int64_t>(compute_secs * 1e6));
      }
      {
        const auto push_start = SteadyClock::now();
        my_status = client.Push(c, update);
        breakdown.comm_seconds += seconds_since(push_start);
      }
      if (!my_status.ok()) {
        if (evicted_by_design()) my_status = Status::OK();
        return;
      }
      if (options.rebalance) {
        // Feed the load-balancing plane this clock's measured compute
        // time (kReportClock drives Master::ReportClockTime and the
        // balancer's decision on the service loop).
        const auto report_start = SteadyClock::now();
        my_status = client.ReportClock(c, compute_secs);
        breakdown.comm_seconds += seconds_since(report_start);
        if (!my_status.ok()) {
          if (evicted_by_design()) my_status = Status::OK();
          return;
        }
      }
      ++breakdown.clocks_completed;
      if (m == 0) {
        const size_t n = options.eval_sample == 0 ? dataset.size()
                                                  : options.eval_sample;
        trace.push_back(
            dataset.ObjectiveSample(loss, replica, options.l2, n));
        if (options.checkpoint_every_clocks > 0 &&
            (c + 1 - start_clock) % options.checkpoint_every_clocks ==
                0) {
          // Checkpointing runs beside live traffic; the PS serializes
          // shard access internally.
          Status st = SaveCheckpointToFile(ps, options.checkpoint_path);
          if (!st.ok()) checkpoint_status = st;
        }
      }
      if (options.sync.NeedsPull(c, cp)) {
        {
          HETPS_TRACE_SPAN1("worker.wait", "worker", m);
          const auto wait_start = SteadyClock::now();
          my_status = client.WaitUntilCanAdvance(c + 1);
          const double secs = seconds_since(wait_start);
          breakdown.wait_seconds += secs;
          wait_us->RecordInt(static_cast<int64_t>(secs * 1e6));
        }
        if (!my_status.ok()) {
          if (evicted_by_design()) my_status = Status::OK();
          return;
        }
        {
          const auto pull_start = SteadyClock::now();
          my_status = client.PullCached(&replica, &cp);
          breakdown.comm_seconds += seconds_since(pull_start);
        }
        if (!my_status.ok()) {
          if (evicted_by_design()) my_status = Status::OK();
          return;
        }
      }
      iter_us->RecordInt(
          std::chrono::duration_cast<std::chrono::microseconds>(
              SteadyClock::now() - iter_start)
              .count());
      if (m == 0 && options.on_epoch) {
        options.on_epoch(c + 1 - start_clock);
      }
    }
    // Drain the push pipeline: the last clocks' pushes may still be in
    // flight, and a failure latched after the final Push would otherwise
    // go unseen. The drain block is the un-hidden remainder (comm); what
    // the pipeline overlapped with compute is reported separately.
    {
      const auto flush_start = SteadyClock::now();
      my_status = client.Flush();
      breakdown.comm_seconds += seconds_since(flush_start);
    }
    if (!my_status.ok()) {
      if (evicted_by_design()) my_status = Status::OK();
      return;
    }
    breakdown.push_hidden_seconds = client.push_hidden_seconds();
    worker_retries[static_cast<size_t>(m)] = client.retry_count();
  };

  std::vector<std::thread> threads;
  for (int m = 0; m < options.num_workers; ++m) {
    threads.emplace_back(worker_body, m);
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

  DistributedTrainResult result;
  for (int m = 0; m < options.num_workers; ++m) {
    RecordBreakdown(&GlobalMetrics(), m,
                    breakdowns[static_cast<size_t>(m)]);
  }
  result.worker_breakdown = std::move(breakdowns);
  result.weights = ps.Snapshot();
  result.objective_per_clock = std::move(trace);
  const size_t n =
      options.eval_sample == 0 ? dataset.size() : options.eval_sample;
  result.final_objective =
      dataset.ObjectiveSample(loss, result.weights, options.l2, n);
  result.messages = bus.delivered_count();
  result.faults = bus.fault_stats();
  for (int64_t r : worker_retries) result.rpc_retries += r;
  result.next_clock = end_clock;
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
