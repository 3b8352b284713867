// Push-path pipelining bench — asynchronous bounded-window pushes vs.
// synchronous push RPCs, measured at three layers:
//
//   1. "rpc": the real MessageBus/PsService/RpcWorkerClient stack on a
//      sparse SSP workload where push transfer time rivals compute time
//      (FaultPlan delays every request; injected_compute_delay gives
//      each clock a matching compute phase). Reports clocks/sec for
//      push_window 0 (synchronous) vs. 1 (double-buffered). This is the
//      acceptance number: the pipelined run must complete >= 25% more
//      clocks/sec at <= 0.02 final-objective gap.
//   2. "bitwise": the pipeline must be a pure latency optimization. A
//      single-worker threaded run is deterministic, and the client
//      drains its queue before every pull (read-your-writes), so
//      push_window 1 must reproduce the push_window 0 objective and
//      weights bit-for-bit.
//   3. "sim": the event simulator's comm model with push_window 0 vs. 1
//      on a straggler cluster — shows the simulated job-time effect and
//      the push seconds the window hid behind compute.
//
// Writes BENCH_push.json (argv[1] overrides the path) through BenchReport
// (schema hetps.bench.v2); CI's push-smoke job runs it and the gates
// below make it exit non-zero on regression.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "engine/distributed_trainer.h"
#include "engine/threaded_trainer.h"
#include "net/message_bus.h"
#include "util/logging.h"
#include "util/stopwatch.h"

using namespace hetps;
using namespace hetps::bench;

namespace {

struct RpcRunStats {
  double wall_seconds = 0.0;
  double clocks_per_sec = 0.0;
  double final_objective = 0.0;
  double push_hidden_seconds = 0.0;  // summed over workers
};

/// Sparse SSP workload over the real RPC stack with push latency that
/// rivals compute: every request is delayed a fixed 2.5ms in transit
/// (FaultPlan) and every clock computes for ~2.5ms
/// (injected_compute_delay). A synchronous pusher pays
/// compute + push-RTT per clock; a window-1 pusher overlaps the push of
/// clock c with the compute of clock c+1.
RpcRunStats RunRpcWorkload(const Dataset& dataset, int push_window) {
  constexpr int kWorkers = 4;
  constexpr int kClocks = 40;
  constexpr double kComputeDelay = 2.5e-3;

  DistributedTrainerOptions options;
  options.sync = SyncPolicy::Ssp(10);
  options.max_clocks = kClocks;
  options.num_workers = kWorkers;
  options.num_servers = 2;
  options.batch_fraction = 0.1;
  options.seed = 11;
  // Keep worker 0's per-clock objective evaluation cheap — it is pure
  // compute paid identically by both windows and only dilutes the
  // clocks/sec signal.
  options.eval_sample = 200;
  options.delta_pull = true;
  options.push_window = push_window;
  options.push_parallelism = 2;
  options.injected_compute_delay =
      std::vector<double>(kWorkers, kComputeDelay);
  // Fixed in-transit delay on every request; identical for both window
  // settings, so pulls and admission polls cost both runs the same.
  options.fault_plan.delay_prob = 1.0;
  options.fault_plan.delay_min_us = 2500;
  options.fault_plan.delay_max_us = 2500;

  auto loss = MakeLoss("logistic");
  // DynSGD dampens stale updates, keeping the 4-worker run stable so
  // the two windows' objectives are comparable.
  auto rule = MakeConsolidationRule("dyn");
  FixedRate sched(0.1);

  const Stopwatch watch;
  auto result = TrainDistributed(dataset, *loss, sched, *rule, options);
  HETPS_CHECK(result.ok()) << result.status().ToString();

  RpcRunStats stats;
  stats.wall_seconds = watch.ElapsedSeconds();
  stats.clocks_per_sec =
      static_cast<double>(kWorkers * kClocks) / stats.wall_seconds;
  stats.final_objective = result.value().final_objective;
  for (const WorkerTimeBreakdown& b : result.value().worker_breakdown) {
    stats.push_hidden_seconds += b.push_hidden_seconds;
  }
  return stats;
}

struct BitwiseStats {
  double objective_sync = 0.0;
  double objective_pipelined = 0.0;
  bool weights_identical = false;
};

/// Single-worker threaded run: deterministic, and with one worker the
/// pipeline's drain-before-pull makes window 1 apply every update at
/// exactly the same point in the schedule as window 0 — so the runs
/// must agree bit-for-bit, not just approximately.
BitwiseStats RunBitwiseCheck(const Dataset& dataset) {
  ThreadedTrainResult runs[2];
  for (int w = 0; w <= 1; ++w) {
    ThreadedTrainerOptions options;
    options.sync = SyncPolicy::Ssp(3);
    options.max_clocks = 15;
    options.num_workers = 1;
    options.num_servers = 2;
    options.partitions_per_server = 2;
    options.batch_fraction = 0.2;
    options.seed = 7;
    options.push_window = w;
    auto loss = MakeLoss("logistic");
    SspRule rule;
    FixedRate sched(0.3);
    runs[w] = TrainThreaded(dataset, *loss, sched, rule, options);
  }
  BitwiseStats stats;
  stats.objective_sync = runs[0].final_objective;
  stats.objective_pipelined = runs[1].final_objective;
  stats.weights_identical =
      runs[0].weights.size() == runs[1].weights.size();
  if (stats.weights_identical) {
    for (size_t i = 0; i < runs[0].weights.size(); ++i) {
      if (runs[0].weights[i] != runs[1].weights[i]) {
        stats.weights_identical = false;
        break;
      }
    }
  }
  return stats;
}

struct SimStats {
  double run_time_seconds = 0.0;
  double push_hidden_seconds = 0.0;
};

/// Simulated comm model: the same cluster and schedule with the push
/// window at 0 (synchronous) vs. 1 (bounded overlap). The simulator
/// charges a window-1 worker only the stall beyond its in-flight slot
/// and books the overlapped transfer as push_hidden_seconds.
SimStats RunSimLeg(const Dataset& dataset, int push_window) {
  SimOptions options;
  options.sync = SyncPolicy::Ssp(3);
  options.max_clocks = 30;
  options.stop_on_convergence = false;
  options.push_window = push_window;
  auto loss = MakeLoss("logistic");
  SspRule rule;
  FixedRate sched(0.5);
  const ClusterConfig cluster = ClusterConfig::WithStragglers(
      /*num_workers=*/8, /*num_servers=*/4, /*hl=*/2.0);
  const SimResult r =
      RunSimulation(dataset, cluster, rule, sched, *loss, options);
  SimStats stats;
  stats.run_time_seconds = r.total_sim_seconds;
  for (const WorkerTimeBreakdown& b : r.worker_breakdown) {
    stats.push_hidden_seconds += b.push_hidden_seconds;
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("push_path", argc > 1 ? argv[1] : "BENCH_push.json");
  const Dataset dataset = MakeUrlLike(0.25);

  // --- 1. RPC stack: clocks/sec, window 0 vs. 1 -----------------------
  // Best of two runs per window: the workload is built from sleeps
  // (transit delay + injected compute), and scheduler oversleep is
  // one-sided noise — the fastest run is the cleanest measurement.
  auto best_of = [&](int window) {
    RpcRunStats best = RunRpcWorkload(dataset, window);
    const RpcRunStats again = RunRpcWorkload(dataset, window);
    return again.clocks_per_sec > best.clocks_per_sec ? again : best;
  };
  const RpcRunStats sync = best_of(/*push_window=*/0);
  const RpcRunStats pipe = best_of(/*push_window=*/1);
  const double improvement =
      sync.clocks_per_sec > 0.0
          ? pipe.clocks_per_sec / sync.clocks_per_sec - 1.0
          : 0.0;
  const double objective_gap =
      std::fabs(pipe.final_objective - sync.final_objective);

  TextTable rpc_table({"push mode", "clocks/sec", "wall (s)",
                       "final objective", "hidden (s)"});
  rpc_table.AddRow({"window 1 (pipelined)", Fmt(pipe.clocks_per_sec, 1),
                    Fmt(pipe.wall_seconds, 3),
                    Fmt(pipe.final_objective, 4),
                    Fmt(pipe.push_hidden_seconds, 3)});
  rpc_table.AddRow({"window 0 (synchronous)", Fmt(sync.clocks_per_sec, 1),
                    Fmt(sync.wall_seconds, 3),
                    Fmt(sync.final_objective, 4),
                    Fmt(sync.push_hidden_seconds, 3)});
  std::printf(
      "=== Push path over the RPC stack (SSP s=10, M=4, 2.5ms transit, "
      "2.5ms compute) ===\n%s\nclocks/sec improvement: %.0f%% "
      "(acceptance floor: 25%%), objective gap %.4f (cap 0.02)\n\n",
      rpc_table.ToString().c_str(), improvement * 100.0, objective_gap);

  // --- 2. Bitwise equivalence -----------------------------------------
  const BitwiseStats bitwise = RunBitwiseCheck(dataset);
  std::printf(
      "=== Bitwise check (1 worker, threaded) ===\nwindow 0 objective "
      "%.17g\nwindow 1 objective %.17g\nweights identical: %s\n\n",
      bitwise.objective_sync, bitwise.objective_pipelined,
      bitwise.weights_identical ? "yes" : "NO");

  // --- 3. Simulated comm model ----------------------------------------
  const SimStats sim_sync = RunSimLeg(dataset, /*push_window=*/0);
  const SimStats sim_pipe = RunSimLeg(dataset, /*push_window=*/1);
  TextTable sim_table(
      {"comm model", "sim time (s)", "push hidden (s)"});
  sim_table.AddRow({"window 1", Fmt(sim_pipe.run_time_seconds, 1),
                    Fmt(sim_pipe.push_hidden_seconds, 1)});
  sim_table.AddRow({"window 0", Fmt(sim_sync.run_time_seconds, 1),
                    Fmt(sim_sync.push_hidden_seconds, 1)});
  std::printf(
      "=== Simulated comm model (URL-like, SSP s=3, M=8, hl=2) ===\n%s\n",
      sim_table.ToString().c_str());

  // --- BENCH_push.json -------------------------------------------------
  report.Set("rpc.clocks_per_sec_pipelined", pipe.clocks_per_sec);
  report.Set("rpc.clocks_per_sec_sync", sync.clocks_per_sec);
  report.Set("rpc.improvement", improvement);
  report.Set("rpc.wall_seconds_pipelined", pipe.wall_seconds);
  report.Set("rpc.wall_seconds_sync", sync.wall_seconds);
  report.Set("rpc.final_objective_pipelined", pipe.final_objective);
  report.Set("rpc.final_objective_sync", sync.final_objective);
  report.Set("rpc.objective_gap", objective_gap);
  report.Set("rpc.push_hidden_seconds_pipelined", pipe.push_hidden_seconds);
  report.Set("bitwise.objective_window0", bitwise.objective_sync);
  report.Set("bitwise.objective_window1", bitwise.objective_pipelined);
  report.Set("bitwise.weights_identical",
             bitwise.weights_identical ? 1.0 : 0.0);
  report.Set("sim.sim_seconds_pipelined", sim_pipe.run_time_seconds);
  report.Set("sim.sim_seconds_sync", sim_sync.run_time_seconds);
  report.Set("sim.push_hidden_seconds_pipelined",
             sim_pipe.push_hidden_seconds);
  report.Gate("improvement", improvement, GateOp::kAtLeast, 0.25);
  report.Gate("objective_gap", objective_gap, GateOp::kAtMost, 0.02);
  report.Require("window1_bitwise_equal",
                 bitwise.objective_sync == bitwise.objective_pipelined &&
                     bitwise.weights_identical);
  return report.Finish();
}
