// Partition-balance bench: how evenly the range schemes' partitions share
// the keys the training data holds, and what that does to the threaded
// runtime's shard locks.
//
//   1. "layout" (deterministic): on the three shapes of the repo
//      benchmark's data (the CTR preset x1.0 at 500,000 features on 2x2
//      partitions, the CTR preset x0.25 on 2x1, the URL preset x8 on
//      4x1), the held keys and the busiest partition's share of them
//      under equal ranges and under the held-key cut that both real
//      trainers build (Partitioner::HeldKeyCuts).
//   2. "threaded" (wall clock): TrainThreaded on the first shape with the
//      threaded benchmark's settings (4 workers, ASP, DynSGD, delta pull,
//      push window 0, 500 clocks), 3 runs after a discarded warm-up.
//      From GlobalMetrics() deltas: the median clocks/s, the busiest
//      partition's share of the summed ps.push_apply_us and
//      ps.pull_piece_us, ps.push_lock_wait_us summed over partitions per
//      push, and per-partition means and pieces per push.
//
// Gates: under the cut the busiest partition holds at most 1.05/P of the
// held keys on every shape, and does at most 45% of the push-apply time.
//
// Writes BENCH_partition.json (argv[1] overrides the path) through
// BenchReport (schema hetps.bench.v2); CI's bench-smoke job uploads it.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/consolidation.h"
#include "engine/threaded_trainer.h"
#include "obs/metrics.h"
#include "ps/partition.h"
#include "util/rng.h"

using namespace hetps;
using namespace hetps::bench;

namespace {

struct Shape {
  const char* name;
  SyntheticConfig config;
  int servers;
  int partitions_per_server;
};

/// The example pool the repo benchmark trains on for `config`.
Dataset Pool(const SyntheticConfig& config) {
  Dataset pool = GenerateSynthetic(config);
  Rng rng(config.seed);
  pool.Shuffle(&rng);
  return pool;
}

/// Largest held-key count of one partition of `part`, over all held keys.
double BusiestHeldShare(const Partitioner& part,
                        const std::vector<bool>& held, int64_t total) {
  std::vector<int64_t> count(static_cast<size_t>(part.num_partitions()), 0);
  for (size_t k = 0; k < held.size(); ++k) {
    if (held[k]) ++count[static_cast<size_t>(part.PartitionOf(k))];
  }
  return static_cast<double>(*std::max_element(count.begin(), count.end())) /
         static_cast<double>(total);
}

std::string JoinCuts(const std::vector<int64_t>& cuts) {
  std::string text;
  for (size_t i = 0; i < cuts.size(); ++i) {
    if (i > 0) text += '/';
    text += std::to_string(cuts[i]);
  }
  return text;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Per-partition (count, sum) of one ps.* histogram family.
struct Family {
  std::vector<HistogramMetric*> h;
  std::vector<int64_t> count;
  std::vector<double> sum;

  Family(const std::string& name, int parts) {
    for (int p = 0; p < parts; ++p) {
      h.push_back(GlobalMetrics().histogram(
          name, {{"partition", std::to_string(p)}}));
    }
    Mark();
  }
  void Mark() {
    count.clear();
    sum.clear();
    for (HistogramMetric* m : h) {
      count.push_back(m->count());
      sum.push_back(m->sum());
    }
  }
  /// Sums recorded since the last Mark, per partition.
  std::vector<double> SumDelta() const {
    std::vector<double> d;
    for (size_t p = 0; p < h.size(); ++p) d.push_back(h[p]->sum() - sum[p]);
    return d;
  }
  std::vector<double> CountDelta() const {
    std::vector<double> d;
    for (size_t p = 0; p < h.size(); ++p) {
      d.push_back(static_cast<double>(h[p]->count() - count[p]));
    }
    return d;
  }
};

double Total(const std::vector<double>& v) {
  double t = 0.0;
  for (double x : v) t += x;
  return t;
}

double BusiestShare(const std::vector<double>& v) {
  const double total = Total(v);
  return total > 0.0 ? *std::max_element(v.begin(), v.end()) / total : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("bench_partition_balance",
                     argc > 1 ? argv[1] : "BENCH_partition.json");

  SyntheticConfig wide = CtrLikeConfig(1.0);
  wide.num_features = 500000;
  const Shape shapes[] = {
      {"ctr_wide", wide, 2, 2},
      {"ctr_narrow", CtrLikeConfig(0.25), 2, 1},
      {"url", UrlLikeConfig(8.0), 4, 1},
  };
  Dataset wide_pool;
  for (const Shape& shape : shapes) {
    Dataset pool = Pool(shape.config);
    const int64_t dim = pool.dimension();
    const int parts = Partitioner::NumPartitions(
        dim, shape.servers, shape.partitions_per_server);
    const std::vector<bool> held = pool.HeldFeatures();
    const int64_t total = std::count(held.begin(), held.end(), true);
    const Partitioner equal(PartitionScheme::kRangeHash, dim, shape.servers,
                            parts);
    const Partitioner cut(PartitionScheme::kRangeHash, dim, shape.servers,
                          parts, Partitioner::HeldKeyCuts(held, parts));
    const double equal_share = BusiestHeldShare(equal, held, total);
    const double cut_share = BusiestHeldShare(cut, held, total);
    int moved = 0;
    for (size_t p = 0; p < cut.cuts().size(); ++p) {
      if (cut.cuts()[p] != equal.cuts()[p]) ++moved;
    }
    const std::string key = std::string("layout.") + shape.name;
    report.Set(key + ".dim", static_cast<double>(dim));
    report.Set(key + ".partitions", static_cast<double>(parts));
    report.Set(key + ".held_keys", static_cast<double>(total));
    report.Set(key + ".equal_busiest_held_share", equal_share);
    report.Set(key + ".cut_busiest_held_share", cut_share);
    report.Set(key + ".cuts", JoinCuts(cut.cuts()));
    report.Set(key + ".cuts_moved", static_cast<double>(moved));
    report.Gate(std::string(shape.name) + "_cut_busiest_held_share", cut_share,
                GateOp::kAtMost, 1.05 / parts);
    std::printf("%-10s dim=%-7lld P=%d held=%-6lld busiest held share: "
                "equal %.3f, cut %.3f (cuts %s)\n",
                shape.name, static_cast<long long>(dim), parts,
                static_cast<long long>(total), equal_share, cut_share,
                JoinCuts(cut.cuts()).c_str());
    if (&shape == &shapes[0]) wide_pool = std::move(pool);
  }

  // The threaded runtime on the first shape.
  ThreadedTrainerOptions options;
  options.num_workers = 4;
  options.num_servers = shapes[0].servers;
  options.partitions_per_server = shapes[0].partitions_per_server;
  options.max_clocks = 500;
  options.sync = SyncPolicy::Asp();
  options.delta_pull = true;
  options.push_window = 0;
  LogisticLoss loss;
  FixedRate schedule(0.3);
  const std::unique_ptr<ConsolidationRule> rule = MakeConsolidationRule("dyn");
  const int parts = Partitioner::NumPartitions(
      wide_pool.dimension(), options.num_servers,
      options.partitions_per_server);
  Family apply("ps.push_apply_us", parts);
  Family lock_wait("ps.push_lock_wait_us", parts);
  Family pull_piece("ps.pull_piece_us", parts);
  Counter* pushes = GlobalMetrics().counter("ps.push.count");
  constexpr int kRuns = 3;
  std::vector<double> clocks_per_s;
  std::vector<double> apply_share;
  std::vector<double> pull_share;
  std::vector<double> lock_wait_per_push;
  double pushes_total = 0.0;
  std::vector<double> apply_sum(static_cast<size_t>(parts), 0.0);
  std::vector<double> apply_n(static_cast<size_t>(parts), 0.0);
  std::vector<double> wait_sum(static_cast<size_t>(parts), 0.0);
  std::vector<double> pull_sum(static_cast<size_t>(parts), 0.0);
  std::vector<double> pull_n(static_cast<size_t>(parts), 0.0);
  // Thread start-up, page faults and first-use metric registration
  // land in this discarded run instead of the first timed one.
  TrainThreaded(wide_pool, loss, schedule, *rule, options);
  for (int run = 0; run < kRuns; ++run) {
    apply.Mark();
    lock_wait.Mark();
    pull_piece.Mark();
    const int64_t pushes_before = pushes->value();
    const ThreadedTrainResult r =
        TrainThreaded(wide_pool, loss, schedule, *rule, options);
    const double n = static_cast<double>(pushes->value() - pushes_before);
    clocks_per_s.push_back(n / r.wall_seconds);
    const std::vector<double> a = apply.SumDelta();
    const std::vector<double> w = lock_wait.SumDelta();
    const std::vector<double> g = pull_piece.SumDelta();
    apply_share.push_back(BusiestShare(a));
    pull_share.push_back(BusiestShare(g));
    lock_wait_per_push.push_back(Total(w) / n);
    pushes_total += n;
    const std::vector<double> an = apply.CountDelta();
    const std::vector<double> gn = pull_piece.CountDelta();
    for (size_t p = 0; p < static_cast<size_t>(parts); ++p) {
      apply_sum[p] += a[p];
      apply_n[p] += an[p];
      wait_sum[p] += w[p];
      pull_sum[p] += g[p];
      pull_n[p] += gn[p];
    }
    std::printf("threaded run %d: %.0f clocks/s, busiest apply share %.3f, "
                "busiest pull share %.3f, lock wait %.1f us/push\n",
                run, clocks_per_s.back(), apply_share.back(),
                pull_share.back(), lock_wait_per_push.back());
  }
  report.Set("threaded.runs", static_cast<double>(kRuns));
  report.Set("threaded.clocks_per_run",
             static_cast<double>(options.num_workers * options.max_clocks));
  report.Set("threaded.clocks_per_s_median", Median(clocks_per_s));
  report.Set("threaded.busiest_apply_share_median", Median(apply_share));
  report.Set("threaded.busiest_pull_share_median", Median(pull_share));
  report.Set("threaded.lock_wait_us_per_push_median",
             Median(lock_wait_per_push));
  for (size_t p = 0; p < static_cast<size_t>(parts); ++p) {
    const std::string key = "threaded.partition_" + std::to_string(p);
    report.Set(key + ".apply_us_mean",
               apply_n[p] > 0.0 ? apply_sum[p] / apply_n[p] : 0.0);
    report.Set(key + ".lock_wait_us_mean",
               apply_n[p] > 0.0 ? wait_sum[p] / apply_n[p] : 0.0);
    report.Set(key + ".apply_share", apply_sum[p] / Total(apply_sum));
    report.Set(key + ".pull_piece_us_mean",
               pull_n[p] > 0.0 ? pull_sum[p] / pull_n[p] : 0.0);
    report.Set(key + ".pieces_per_push", apply_n[p] / pushes_total);
  }
  report.Gate("threaded_busiest_apply_share", Median(apply_share),
              GateOp::kAtMost, 0.45);
  return report.Finish();
}
