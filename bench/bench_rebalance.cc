// Straggler-aware live rebalancing bench — time-to-target-loss under
// controlled 2x heterogeneity (the paper's slowdown-injection protocol,
// §3/§7.2) with the load-balancing plane off vs. on.
//
// Protocol: LR on the URL-like dataset, M=8 with 25% of the workers
// slowed 2x (lognormal per-clock jitter on every worker), SSP s=3,
// stop-on-convergence at the URL tolerance. Each mode is averaged over
// three jitter/stagger seeds like the paper's three-run protocol.
//
// Acceptance (this binary exit-fails below the floor):
//   - mean time-to-target-loss with rebalancing must improve >= 15%
//     over the no-mitigation baseline, and
//   - the mean final objective must agree within 0.05 (rebalancing must
//     not buy speed with statistical efficiency), and
//   - the rebalance runs must migrate examples at least once.
//
// Writes BENCH_rebalance.json (argv[1] overrides the path) through
// BenchReport (schema hetps.bench.v2); CI's rebalance-smoke job uploads
// it.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/consolidation.h"

using namespace hetps;
using namespace hetps::bench;

namespace {

struct ModeStats {
  double run_time_seconds = 0.0;   // mean time-to-target-loss
  double final_objective = 0.0;    // mean
  double examples_rebalanced = 0.0;
  double examples_returned = 0.0;
  double migrations = 0.0;
  int converged = 0;               // runs (of kReps) that converged
};

constexpr int kReps = 3;

ModeStats RunMode(bool rebalance, const Dataset& dataset,
                  const ClusterConfig& cluster, const LossFunction& loss) {
  ModeStats stats;
  for (int rep = 0; rep < kReps; ++rep) {
    SimOptions options;
    options.sync = SyncPolicy::Ssp(3);
    options.max_clocks = 150;
    options.stop_on_convergence = true;
    options.objective_tolerance = UrlTolerance();
    options.eval_every_pushes = 5;
    options.seed = 7 + static_cast<uint64_t>(rep);
    options.rebalance = rebalance;
    // Bench knobs: shed aggressively once the hysteresis gate opens so
    // the shard split reaches its equilibrium within a few clocks. The
    // threshold sits well above the per-clock jitter band (sigma 0.08,
    // and the fastest-of-six baseline is itself a low outlier) but well
    // below the 2x injected slowdown — FlexRR's 1.2 default false-flags
    // fast workers here and churns shards without end.
    options.balancer.straggler_threshold = 1.45;
    options.balancer.hysteresis = 3;
    options.balancer.reassign_fraction = 0.15;
    options.balancer.min_shard_size = 8;
    SspRule rule;
    FixedRate sched(0.1);
    const SimResult r =
        RunSimulation(dataset, cluster, rule, sched, loss, options);
    stats.run_time_seconds += r.run_time_seconds;
    stats.final_objective += r.final_objective;
    stats.examples_rebalanced += static_cast<double>(r.examples_rebalanced);
    stats.examples_returned += static_cast<double>(r.examples_returned);
    stats.migrations += static_cast<double>(r.rebalance_migrations);
    stats.converged += r.converged ? 1 : 0;
  }
  stats.run_time_seconds /= kReps;
  stats.final_objective /= kReps;
  stats.examples_rebalanced /= kReps;
  stats.examples_returned /= kReps;
  stats.migrations /= kReps;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("rebalance",
                     argc > 1 ? argv[1] : "BENCH_rebalance.json");

  Dataset dataset = MakeUrlLike(0.5);
  auto loss = MakeLoss("logistic");
  const ClusterConfig cluster = ClusterConfig::WithStragglers(
      /*num_workers=*/8, /*num_servers=*/4, /*hl=*/2.0, /*fraction=*/0.25);

  const ModeStats off = RunMode(/*rebalance=*/false, dataset, cluster, *loss);
  const ModeStats on = RunMode(/*rebalance=*/true, dataset, cluster, *loss);

  const double improvement =
      off.run_time_seconds > 0.0
          ? (off.run_time_seconds - on.run_time_seconds) /
                off.run_time_seconds
          : 0.0;
  const double objective_gap =
      std::fabs(on.final_objective - off.final_objective);

  TextTable table({"mode", "time to target (s)", "final objective",
                   "moved", "returned", "migrations", "converged"});
  table.AddRow({"no mitigation", Fmt(off.run_time_seconds, 1),
                Fmt(off.final_objective, 4), FmtInt(0), FmtInt(0), FmtInt(0),
                off.converged == kReps ? "yes" : "partly"});
  table.AddRow({"rebalance", Fmt(on.run_time_seconds, 1),
                Fmt(on.final_objective, 4),
                FmtInt(static_cast<int64_t>(on.examples_rebalanced)),
                FmtInt(static_cast<int64_t>(on.examples_returned)),
                FmtInt(static_cast<int64_t>(on.migrations)),
                on.converged == kReps ? "yes" : "partly"});
  std::printf(
      "=== Straggler-aware rebalancing (LR, URL-like, M=8, 25%% "
      "stragglers at 2x, SSP s=3, %d-seed mean) ===\n%s\n"
      "time-to-target improvement: %.1f%% (acceptance floor: 15%%)\n"
      "final-objective gap: %.4f (acceptance ceiling: 0.05)\n\n",
      kReps, table.ToString().c_str(), improvement * 100.0, objective_gap);

  report.Set("no_mitigation.run_time_seconds", off.run_time_seconds);
  report.Set("no_mitigation.final_objective", off.final_objective);
  report.Set("no_mitigation.converged_runs",
             static_cast<double>(off.converged));
  report.Set("rebalance.run_time_seconds", on.run_time_seconds);
  report.Set("rebalance.final_objective", on.final_objective);
  report.Set("rebalance.examples_rebalanced", on.examples_rebalanced);
  report.Set("rebalance.examples_returned", on.examples_returned);
  report.Set("rebalance.migrations", on.migrations);
  report.Set("rebalance.converged_runs", static_cast<double>(on.converged));
  report.Gate("improvement", improvement, GateOp::kAtLeast, 0.15);
  report.Gate("objective_gap", objective_gap, GateOp::kAtMost, 0.05);
  report.Gate("migrations", on.migrations, GateOp::kAbove, 0.0);
  return report.Finish();
}
