#include "runtimes.h"

#include <chrono>
#include <cmath>
#include <functional>
#include <thread>

#include "core/sgd_compute.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "net/message_bus.h"
#include "net/ps_service.h"
#include "obs/metrics.h"
#include "ps/parameter_server.h"
#include "ps/worker_client.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using hetps::Dataset;
using hetps::SparseVector;

// Why each workload is here (BENCHMARK.json says the same in one line):
//  - inproc-wide: the in-process PS does most of the work and reads
//    dominate. ASP pulls every clock without an admission wait, and the
//    500k-feature model makes each worker's 4 MB replica larger than a
//    core's L2, so shard apply under hot-key contention, PullDelta
//    assembly and the client's cache apply plus replica copy all show.
//  - rpc-narrow: the message bus and the single PsService loop do the
//    most work. The 6000-feature model fits in cache and SSP(3) pushes
//    every clock but pulls only when cmin lags, so bus round trips,
//    queueing, encode/decode and admission polls dominate.
//  - sim-hetero: single-threaded simulation of 16 workers on 4 servers
//    with 20% compute stragglers at HL 2; LocalWorkerSgd's gradient math
//    does most of the wall-clock work, and the simulated time to target
//    is the paper's headline number.
// Targets sit where the objective still falls steeply, so the crossing
// clock moves little between seeds: mid-run on the real runtimes, about a
// quarter in on the simulator, whose curve flattens early. Ceilings leave
// room for seed-to-seed variation but not for a broken optimizer.
constexpr WorkloadSpec kWorkloads[] = {
    {"inproc-wide", Runtime::kThreaded, 500, 0.362, 0.36},
    {"rpc-narrow", Runtime::kRpc, 1500, 0.178, 0.20},
    {"sim-hetero", Runtime::kSim, 200, 0.17, 0.20},
};

bool AllFinite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Worker-0 clock-end timestamps and PS update counts, taken in on_epoch.
struct EpochLog {
  std::vector<int64_t> ns;
  std::vector<int64_t> updates;
};

std::function<void(int)> LogEpochs(EpochLog* log, int clocks) {
  log->ns.reserve(static_cast<size_t>(clocks));
  log->updates.reserve(static_cast<size_t>(clocks));
  hetps::Counter* pushes =
      hetps::GlobalMetrics().counter("ps.push.count");
  return [log, pushes](int) {
    log->ns.push_back(NowNs());
    log->updates.push_back(pushes->value());
  };
}

// Fills the clock durations and the time/updates to target of a real
// runtime's run from its epoch log.
void FinishFromEpochs(const WorkloadSpec& spec, const EpochLog& log,
                      int64_t start_ns, int64_t start_updates,
                      EngineRun* run) {
  for (size_t i = 1; i < log.ns.size(); ++i) {
    run->clock_ms.push_back(static_cast<double>(log.ns[i] - log.ns[i - 1]) /
                            1e6);
  }
  const int k = FirstSustainedIndex(run->objectives, spec.target, 3);
  if (k >= 0 && static_cast<size_t>(k) < log.ns.size()) {
    run->time_to_target_s =
        static_cast<double>(log.ns[static_cast<size_t>(k)] - start_ns) / 1e9;
    run->updates_to_target =
        log.updates[static_cast<size_t>(k)] - start_updates;
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Setup MakeSetup(const WorkloadSpec& spec, uint64_t seed) {
  Setup s;
  hetps::SyntheticConfig config;
  double lr = 0.3;
  switch (spec.runtime) {
    case Runtime::kThreaded:
      s.workers = 4;
      config = hetps::CtrLikeConfig(1.0);
      config.num_features = 500000;
      break;
    case Runtime::kRpc:
      s.workers = 3;
      config = hetps::CtrLikeConfig(0.25);
      break;
    case Runtime::kSim:
      s.workers = 16;
      config = hetps::UrlLikeConfig(8.0);
      lr = 2.0;
      break;
  }
  // The example pool and each worker's shard of it come from the preset's
  // own generator seed, so every seed trains the same problem towards the
  // same fixed target: a seed-drawn pool or shard split moves the
  // reachable objective, and with it time to target, by far more than any
  // bound. The workload seed permutes the examples inside each shard
  // (the order and make-up of every mini-batch) and seeds the runtime's
  // own randomness.
  hetps::Dataset pool = hetps::GenerateSynthetic(config);
  hetps::Rng pool_rng(config.seed);
  pool.Shuffle(&pool_rng);
  std::vector<hetps::Example> examples = pool.examples();
  hetps::Rng rng(seed);
  for (const hetps::DataShard& shard :
       hetps::SplitData(examples.size(), static_cast<size_t>(s.workers),
                        hetps::ShardingPolicy::kContiguous)) {
    const std::vector<size_t>& idx = shard.example_indices;
    for (size_t i = idx.size(); i > 1; --i) {
      std::swap(examples[idx[i - 1]], examples[idx[rng.NextUint64(i)]]);
    }
  }
  s.dataset = hetps::Dataset(std::move(examples), pool.dimension());
  s.loss = std::make_unique<hetps::LogisticLoss>();
  s.schedule = std::make_unique<hetps::FixedRate>(lr);
  s.rule = hetps::MakeConsolidationRule("dyn");

  switch (spec.runtime) {
    case Runtime::kThreaded:
      s.threaded.num_workers = s.workers;
      s.threaded.max_clocks = spec.clocks;
      s.threaded.sync = hetps::SyncPolicy::Asp();
      s.threaded.delta_pull = true;
      s.threaded.push_window = 0;
      s.threaded.seed = seed;
      break;
    case Runtime::kRpc:
      s.rpc.num_workers = s.workers;
      s.rpc.max_clocks = spec.clocks;
      s.rpc.sync = hetps::SyncPolicy::Ssp(3);
      s.rpc.delta_pull = true;
      s.rpc.push_window = 0;
      s.rpc.seed = seed;
      break;
    case Runtime::kSim:
      s.cluster = hetps::ClusterConfig::WithStragglers(
          s.workers, /*num_servers=*/4, /*hl=*/2.0, /*fraction=*/0.2);
      s.sim.sync = hetps::SyncPolicy::Ssp(3);
      s.sim.max_clocks = spec.clocks;
      s.sim.stop_on_convergence = false;
      s.sim.objective_tolerance = spec.target;
      s.sim.seed = seed;
      break;
  }
  return s;
}

EngineRun RunEngine(const WorkloadSpec& spec, const Setup& setup,
                    int clocks) {
  EngineRun run;
  run.clocks_attempted =
      static_cast<int64_t>(setup.workers) * clocks;
  EpochLog log;
  hetps::Counter* pushes = hetps::GlobalMetrics().counter("ps.push.count");
  const int64_t start_updates = pushes->value();
  const int64_t start_ns = NowNs();
  auto wall_s = [start_ns] {
    return static_cast<double>(NowNs() - start_ns) / 1e9;
  };
  switch (spec.runtime) {
    case Runtime::kThreaded: {
      hetps::ThreadedTrainerOptions options = setup.threaded;
      options.max_clocks = clocks;
      options.on_epoch = LogEpochs(&log, clocks);
      hetps::ThreadedTrainResult r =
          hetps::TrainThreaded(setup.dataset, *setup.loss, *setup.schedule,
                               *setup.rule, options);
      run.wall_s = wall_s();
      run.clocks = run.clocks_attempted;
      run.objectives = std::move(r.objective_per_clock);
      run.final_objective = r.final_objective;
      run.finite = AllFinite(r.weights) && AllFinite(run.objectives) &&
                   std::isfinite(r.final_objective);
      run.breakdown = std::move(r.worker_breakdown);
      run.worker_seconds = r.wall_seconds * options.num_workers;
      FinishFromEpochs(spec, log, start_ns, start_updates, &run);
      break;
    }
    case Runtime::kRpc: {
      hetps::DistributedTrainerOptions options = setup.rpc;
      options.max_clocks = clocks;
      options.on_epoch = LogEpochs(&log, clocks);
      hetps::Result<hetps::DistributedTrainResult> r =
          hetps::TrainDistributed(setup.dataset, *setup.loss,
                                  *setup.schedule, *setup.rule, options);
      run.wall_s = wall_s();
      if (!r.ok()) {
        run.ok = false;
        run.error = r.status().ToString();
        return run;
      }
      hetps::DistributedTrainResult& d = r.value();
      for (const hetps::WorkerTimeBreakdown& b : d.worker_breakdown) {
        run.clocks += b.clocks_completed;
      }
      run.objectives = std::move(d.objective_per_clock);
      run.final_objective = d.final_objective;
      run.finite = AllFinite(d.weights) && AllFinite(run.objectives) &&
                   std::isfinite(d.final_objective);
      run.breakdown = std::move(d.worker_breakdown);
      run.worker_seconds = run.wall_s * options.num_workers;
      FinishFromEpochs(spec, log, start_ns, start_updates, &run);
      break;
    }
    case Runtime::kSim: {
      hetps::SimOptions options = setup.sim;
      options.max_clocks = clocks;
      options.on_epoch = LogEpochs(&log, clocks);
      run.sim = hetps::RunSimulation(setup.dataset, setup.cluster,
                                     *setup.rule, *setup.schedule,
                                     *setup.loss, options);
      run.wall_s = wall_s();
      const hetps::SimResult& r = run.sim;
      run.clocks = r.total_pushes;
      run.objectives = r.objective_per_clock;
      run.final_objective = r.final_objective;
      run.finite = AllFinite(run.objectives) &&
                   std::isfinite(r.final_objective);
      if (r.workers_blocked_at_end != 0 || r.workers_evicted != 0) {
        run.ok = false;
        run.error = "simulated workers blocked or evicted";
      }
      run.breakdown = r.worker_breakdown;
      run.worker_seconds = r.total_sim_seconds * setup.cluster.num_workers;
      // A gap between worker-0 clocks spans however many clocks the other
      // simulated workers finish in it, which the seed's schedule decides,
      // and a global evaluation every eval_every_pushes updates lands in
      // some gaps only. The simulator's clock time is therefore the wall
      // time per simulated worker clock over runs of gaps holding at
      // least one clock per worker.
      size_t from = 0;
      for (size_t i = 1; i < log.ns.size(); ++i) {
        const int64_t updates = log.updates[i] - log.updates[from];
        if (updates < setup.workers) continue;
        run.clock_ms.push_back(
            static_cast<double>(log.ns[i] - log.ns[from]) / 1e6 /
            static_cast<double>(updates));
        from = i;
      }
      if (r.converged) {
        run.time_to_target_s = r.run_time_seconds;
        run.updates_to_target = r.updates_to_converge;
      }
      break;
    }
  }
  return run;
}

namespace {

hetps::LocalWorkerSgd MakeSgd(const Setup& setup,
                              const hetps::DataShard& shard,
                              double batch_fraction, double l2) {
  hetps::LocalWorkerSgd::Options sgd_opts;
  sgd_opts.batch_size =
      hetps::LocalWorkerSgd::BatchSizeForFraction(shard.size(), batch_fraction);
  sgd_opts.l2 = l2;
  return hetps::LocalWorkerSgd(&setup.dataset, shard, setup.loss.get(),
                               setup.schedule.get(), sgd_opts);
}

// Runs `body(m, &result_m)` for every worker on its own thread, then sums
// the per-worker results (the first failure's error wins).
LoopRun RunWorkers(int workers,
                   const std::function<void(int, LoopRun*)>& body) {
  std::vector<LoopRun> per_worker(static_cast<size_t>(workers));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int m = 0; m < workers; ++m) {
    threads.emplace_back(body, m, &per_worker[static_cast<size_t>(m)]);
  }
  for (std::thread& t : threads) t.join();
  LoopRun run;
  run.wall_s = SecondsSince(start);
  for (const LoopRun& w : per_worker) {
    run.clocks += w.clocks;
    run.nnz += w.nnz;
    run.pulls += w.pulls;
    run.pulled_bytes += w.pulled_bytes;
    run.pulled_bytes_full += w.pulled_bytes_full;
    run.finite = run.finite && w.finite;
    if (!w.ok && run.ok) {
      run.ok = false;
      run.error = w.error;
    }
  }
  return run;
}

// The threaded trainer's worker loop (TrainThreaded) without the
// straggler sleep and prefetch options, which no workload sets.
LoopRun RunThreadedLoop(const Setup& setup,
                        std::vector<SpanBuffer>* spans) {
  const hetps::ThreadedTrainerOptions& options = setup.threaded;
  const Dataset& dataset = setup.dataset;
  hetps::PsOptions ps_opts;
  ps_opts.num_servers = options.num_servers;
  ps_opts.partitions_per_server = options.partitions_per_server;
  ps_opts.scheme = options.scheme;
  ps_opts.sync = options.sync;
  ps_opts.partition_sync = options.partition_sync;
  ps_opts.update_filter_epsilon = options.update_filter_epsilon;
  ps_opts.push_parallelism = options.push_parallelism;
  hetps::ParameterServer ps(dataset.dimension(), options.num_workers,
                            *setup.rule, ps_opts);
  const std::vector<hetps::DataShard> shards = hetps::SplitData(
      dataset.size(), static_cast<size_t>(options.num_workers),
      hetps::ShardingPolicy::kContiguous);
  const size_t eval_n =
      options.eval_sample == 0 ? dataset.size() : options.eval_sample;

  LoopRun run = RunWorkers(options.num_workers, [&](int m, LoopRun* out) {
    const size_t mi = static_cast<size_t>(m);
    SpanBuffer* buf = spans != nullptr ? &(*spans)[mi] : nullptr;
    hetps::LocalWorkerSgd sgd =
        MakeSgd(setup, shards[mi], options.batch_fraction, options.l2);
    std::vector<double> replica(static_cast<size_t>(dataset.dimension()),
                                0.0);
    hetps::WorkerClient client(m, &ps, options.delta_pull,
                               options.push_window);
    for (int c = 0; c < options.max_clocks; ++c) {
      ScopedSpan clock_span(buf, kWorkerClock);
      SparseVector update;
      {
        ScopedSpan span(buf, kRunClock);
        out->nnz += static_cast<int64_t>(
            sgd.RunClock(c, &replica, &update).nnz_processed);
      }
      {
        ScopedSpan span(buf, kClientPush);
        client.Push(c, update);
      }
      if (m == 0) {
        ScopedSpan span(buf, kObjective);
        const double obj =
            dataset.ObjectiveSample(*setup.loss, replica, options.l2, eval_n);
        out->finite = out->finite && std::isfinite(obj);
      }
      {
        ScopedSpan span(buf, kClientPull);
        if (client.MaybePull(c, &replica)) ++out->pulls;
      }
      ++out->clocks;
    }
    client.Flush();
    out->pulled_bytes = client.pulled_bytes();
    out->pulled_bytes_full = client.pulled_bytes_full();
  });
  run.finite = run.finite && AllFinite(ps.Snapshot());
  return run;
}

// The distributed trainer's worker loop (TrainDistributed) without the
// fault, checkpoint, rebalance and liveness options, which no workload
// sets.
LoopRun RunRpcLoop(const Setup& setup, std::vector<SpanBuffer>* spans) {
  const hetps::DistributedTrainerOptions& options = setup.rpc;
  const Dataset& dataset = setup.dataset;
  hetps::PsOptions ps_opts;
  ps_opts.num_servers = options.num_servers;
  ps_opts.sync = options.sync;
  ps_opts.partition_sync = options.partition_sync;
  ps_opts.push_parallelism = options.push_parallelism;
  hetps::ParameterServer ps(dataset.dimension(), options.num_workers,
                            *setup.rule, ps_opts);
  hetps::MessageBus bus;
  hetps::PsService service(&ps, &bus, "ps");
  const std::vector<hetps::DataShard> shards = hetps::SplitData(
      dataset.size(), static_cast<size_t>(options.num_workers),
      hetps::ShardingPolicy::kContiguous);
  const size_t eval_n =
      options.eval_sample == 0 ? dataset.size() : options.eval_sample;

  LoopRun run = RunWorkers(options.num_workers, [&](int m, LoopRun* out) {
    const size_t mi = static_cast<size_t>(m);
    SpanBuffer* buf = spans != nullptr ? &(*spans)[mi] : nullptr;
    auto fail = [out](const hetps::Status& st) {
      out->ok = false;
      out->error = st.ToString();
    };
    hetps::RpcWorkerClient client(m, &bus, "ps", options.rpc_retry,
                                  options.push_window);
    hetps::LocalWorkerSgd sgd =
        MakeSgd(setup, shards[mi], options.batch_fraction, options.l2);
    std::vector<double> replica;
    int cp = 0;
    hetps::Status st = client.PullCached(&replica, &cp);
    if (!st.ok()) return fail(st);
    for (int c = 0; c < options.max_clocks; ++c) {
      ScopedSpan clock_span(buf, kWorkerClock);
      SparseVector update;
      {
        ScopedSpan span(buf, kRunClock);
        out->nnz += static_cast<int64_t>(
            sgd.RunClock(c, &replica, &update).nnz_processed);
      }
      {
        ScopedSpan span(buf, kNetPush);
        st = client.Push(c, update);
      }
      if (!st.ok()) return fail(st);
      ++out->clocks;
      if (m == 0) {
        ScopedSpan span(buf, kObjective);
        const double obj =
            dataset.ObjectiveSample(*setup.loss, replica, options.l2, eval_n);
        out->finite = out->finite && std::isfinite(obj);
      }
      if (options.sync.NeedsPull(c, cp)) {
        {
          ScopedSpan span(buf, kNetAdmission);
          st = client.WaitUntilCanAdvance(c + 1);
        }
        if (!st.ok()) return fail(st);
        {
          ScopedSpan span(buf, kNetPull);
          st = client.PullCached(&replica, &cp);
        }
        if (!st.ok()) return fail(st);
        ++out->pulls;
      }
    }
    st = client.Flush();
    if (!st.ok()) return fail(st);
    out->pulled_bytes = client.pulled_bytes();
    out->pulled_bytes_full = client.pulled_bytes_full();
  });
  run.finite = run.finite && AllFinite(ps.Snapshot());
  return run;
}

}  // namespace

LoopRun RunWorkerLoop(const WorkloadSpec& spec, const Setup& setup,
                      std::vector<SpanBuffer>* spans) {
  if (spans != nullptr) {
    spans->assign(static_cast<size_t>(setup.workers), SpanBuffer());
  }
  return spec.runtime == Runtime::kRpc ? RunRpcLoop(setup, spans)
                                       : RunThreadedLoop(setup, spans);
}

int64_t ReplaySimCompute(const Setup& setup, const hetps::SimResult& result,
                         SpanBuffer* spans) {
  const Dataset& dataset = setup.dataset;
  const int workers = setup.cluster.num_workers;
  const std::vector<hetps::DataShard> shards =
      hetps::SplitData(dataset.size(), static_cast<size_t>(workers),
                       hetps::ShardingPolicy::kContiguous);
  int64_t nnz = 0;
  std::vector<double> replica;
  for (int m = 0; m < workers; ++m) {
    const size_t mi = static_cast<size_t>(m);
    hetps::LocalWorkerSgd sgd =
        MakeSgd(setup, shards[mi], setup.sim.batch_fraction, setup.sim.l2);
    replica.assign(static_cast<size_t>(dataset.dimension()), 0.0);
    const int clocks =
        mi < result.worker_breakdown.size()
            ? static_cast<int>(result.worker_breakdown[mi].clocks_completed)
            : 0;
    for (int c = 0; c < clocks; ++c) {
      SparseVector update;
      ScopedSpan span(spans, kRunClock);
      nnz += static_cast<int64_t>(
          sgd.RunClock(c, &replica, &update).nnz_processed);
    }
  }
  // One evaluation per worker-0 clock plus one every eval_every_pushes
  // received updates, as the simulator does.
  const int64_t evals =
      static_cast<int64_t>(result.objective_per_clock.size()) +
      result.total_pushes / std::max(1, setup.sim.eval_every_pushes);
  for (int64_t e = 0; e < evals; ++e) {
    ScopedSpan span(spans, kObjective);
    dataset.ObjectiveSample(*setup.loss, replica, setup.sim.l2,
                            setup.sim.eval_sample);
  }
  return nnz;
}

}  // namespace perfbench
