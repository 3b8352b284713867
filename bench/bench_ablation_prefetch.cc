// Ablation — parameter pre-fetching (Appendix D) on the REAL threaded
// runtime: overlap the SSP admission wait and pull with computation.
//
// Finding worth stating up front: with an injected straggler under SSP,
// the *straggler* is the job's critical path, so hiding the fast
// workers' waits cannot shorten the job — prefetching must simply not
// hurt (same wall time, same quality). Its wall-time payoff appears when
// the worker's own pull transfer, not the staleness barrier, dominates;
// a single-core host cannot overlap CPU-bound work, so this bench checks
// the no-regression property.

#include <cstdio>

#include "bench_common.h"
#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "engine/threaded_trainer.h"

using namespace hetps;
using namespace hetps::bench;

int main() {
  Dataset dataset = MakeUrlLike(0.5);
  auto loss = MakeLoss("logistic");
  FixedRate sched(0.5);
  DynSgdRule rule;

  TextTable table({"mode", "wall (s)", "final objective"});
  double wall[2] = {0.0, 0.0};
  for (int pf = 0; pf <= 1; ++pf) {
    ThreadedTrainerOptions opts;
    opts.sync = SyncPolicy::Ssp(1);
    opts.num_workers = 4;
    opts.num_servers = 2;
    opts.max_clocks = 16;
    opts.prefetch = pf != 0;
    // One worker sleeps 80 ms per clock: fast workers hit the SSP
    // barrier every clock.
    opts.injected_compute_delay = {0.0, 0.0, 0.0, 0.08};
    double total = 0.0;
    double objective = 0.0;
    const int reps = 3;
    for (int rep = 0; rep < reps; ++rep) {
      const ThreadedTrainResult r =
          TrainThreaded(dataset, *loss, sched, rule, opts);
      total += r.wall_seconds;
      objective += r.final_objective;
    }
    wall[pf] = total / reps;
    table.AddRow({pf ? "prefetch" : "on-demand pull",
                  Fmt(total / reps, 3), Fmt(objective / reps, 4)});
  }
  std::printf("=== Ablation: parameter pre-fetching on the threaded "
              "runtime (DynSGD, SSP s=1, 1 straggler) ===\n%s\n",
              table.ToString().c_str());
  std::printf("wall ratio: %.2fx (the straggler bounds the job either "
              "way; prefetch must not regress quality or time)\n",
              wall[0] / wall[1]);
  return 0;
}
