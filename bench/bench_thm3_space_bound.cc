// Theorem 3 ablation — space cost of the multi-version store: sweep the
// staleness s and the number of servers P; measure the peak number of
// live versions per partition (Theorem 3 bounds it by cmax - cmin + 1
// <= s + 1, plus one version that can be in flight while its final
// updates are on the wire), and the measured bytes.

#include <cstdio>

#include "bench_common.h"
#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "core/regret_bounds.h"

using namespace hetps;
using namespace hetps::bench;

int main() {
  Dataset dataset = MakeUrlLike(0.5);
  auto loss = MakeLoss("logistic");

  TextTable table({"s", "P", "peak live versions", "window bound (s+2)",
                   "peak aux MB", "param MB", "within bound"});
  bool all_within = true;
  for (int s : {0, 3, 10, 20}) {
    for (int servers : {1, 5, 10}) {
      const ClusterConfig cluster =
          ClusterConfig::WithStragglers(20, servers, 2.0, 0.2);
      SimOptions options;
      options.sync = SyncPolicy::Ssp(s);
      options.max_clocks = 40;
      options.stop_on_convergence = false;
      options.eval_every_pushes = 1;  // sample the window densely
      options.record_clock_objectives = false;
      DynSgdRule rule;
      FixedRate sched(1.0);
      const SimResult r =
          RunSimulation(dataset, cluster, rule, sched, *loss, options);
      // The SSP admission gives cmax - cmin <= s at any admission point;
      // one more version can exist transiently while a clock's last
      // pieces are still in flight.
      const size_t window_bound = static_cast<size_t>(s) + 2;
      const bool within = r.peak_live_versions <= window_bound;
      all_within = all_within && within;
      table.AddRow(
          {FmtInt(s), FmtInt(servers),
           FmtInt(static_cast<int64_t>(r.peak_live_versions)),
           FmtInt(static_cast<int64_t>(window_bound)),
           Fmt(static_cast<double>(r.peak_aux_memory_bytes) / 1e6, 3),
           Fmt(static_cast<double>(r.param_memory_bytes) / 1e6, 3),
           within ? "yes" : "NO"});
    }
  }
  std::printf("=== Theorem 3: live-version window vs the bound "
              "cmax-cmin+1 <= s+1 (+1 in flight) (DynSGD, LR, URL-like) "
              "===\n%s\n%s\n",
              table.ToString().c_str(),
              all_within ? "All configurations within the bound."
                         : "BOUND VIOLATION — investigate!");
  std::printf("(bytes exceed (live versions) x (dense parameter) only "
              "transiently: a version summary re-applies the 50%% layout "
              "rule every 8 pushes, and until then a filling sparse "
              "summary costs 16 B per key, twice a dense slot; see "
              "Figure 13 for the byte-level accounting)\n");
  return all_within ? 0 : 1;
}
