// Compute-kernel bench for the runtime-dispatched kernel library and
// the trainer clock built on it (DESIGN.md §9), measured at three
// layers:
//
//   1. "kernels": per-kernel GB/s for the scalar reference table vs. the
//      dispatched (AVX2 where available) table on L1-resident dense
//      operands, plus the sparse gather/scatter kernels on a synthetic
//      power-law support. Acceptance: geometric-mean speedup of the five
//      dense kernels >= 2x when the AVX2 table is active. On hardware
//      without AVX2+FMA the floor is skipped (reported as such) — there
//      is nothing to dispatch to.
//   2. "e2e": clocks/sec of the touched-list LocalWorkerSgd::RunClock vs.
//      a faithful reimplementation of the pre-PR three-pass trainer
//      (dense O(dim) gradient fills + FromDense emission) on a sparse
//      high-dimensional shard — the algorithmic win, independent of ISA.
//      Acceptance: >= 3x clocks/sec.
//   3. "run_clock": LocalWorkerSgd::RunClock ns per nonzero (median of
//      5 repetitions) on one worker's shard of the three perfbench
//      workloads' data shapes. Recorded, not gated.
//
// Writes BENCH_kernels.json (argv[1] overrides the path) through
// BenchReport (schema hetps.bench.v2); CI's kernels-smoke job uploads it
// and the floors are enforced via the exit code.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/learning_rate.h"
#include "core/sgd_compute.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "math/kernels.h"
#include "math/loss.h"
#include "math/sparse_vector.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace hetps;
using namespace hetps::bench;

namespace {

// --------------------------------------------------------------------
// Layer 1: kernel microbenchmarks.
// --------------------------------------------------------------------

/// L1-resident operand size: dispatch wins must come from the ALUs, not
/// from memory-bandwidth noise.
constexpr size_t kDenseN = 4096;
constexpr size_t kSparseNnz = 1024;
constexpr size_t kSparseDim = 1 << 16;

/// Repetitions chosen so each timed region runs for ~tens of ms.
constexpr int kDenseReps = 200000;
constexpr int kSparseReps = 100000;

struct KernelResult {
  std::string name;
  double scalar_gbps = 0.0;
  double dispatch_gbps = 0.0;
  bool dense = false;  // participates in the >=2x floor
  double speedup() const {
    return scalar_gbps > 0.0 ? dispatch_gbps / scalar_gbps : 0.0;
  }
};

struct KernelInputs {
  kernels::AlignedVector x;
  kernels::AlignedVector y;
  std::vector<int64_t> idx;
  std::vector<double> val;
  kernels::AlignedVector dense;  // sparse-kernel operand
};

KernelInputs MakeInputs() {
  KernelInputs in;
  Rng rng(20260806);
  in.x.resize(kDenseN);
  in.y.resize(kDenseN);
  for (size_t i = 0; i < kDenseN; ++i) {
    in.x[i] = rng.NextDouble() - 0.5;
    in.y[i] = rng.NextDouble() - 0.5;
  }
  in.dense.resize(kSparseDim);
  for (size_t i = 0; i < kSparseDim; ++i) in.dense[i] = rng.NextDouble();
  // Sorted unique indices over the sparse operand (partial
  // Fisher-Yates on the identity permutation).
  std::vector<int64_t> pool(kSparseDim);
  for (size_t i = 0; i < kSparseDim; ++i) {
    pool[i] = static_cast<int64_t>(i);
  }
  for (size_t i = 0; i < kSparseNnz; ++i) {
    const size_t j =
        i + static_cast<size_t>(rng.NextUint64(kSparseDim - i));
    std::swap(pool[i], pool[j]);
  }
  in.idx.assign(pool.begin(),
                pool.begin() + static_cast<int64_t>(kSparseNnz));
  std::sort(in.idx.begin(), in.idx.end());
  in.val.resize(kSparseNnz);
  for (size_t i = 0; i < kSparseNnz; ++i) {
    in.val[i] = rng.NextDouble() - 0.5;
  }
  return in;
}

/// Times `body` and converts to effective GB/s given bytes-per-rep.
template <typename Body>
double TimeGbps(int reps, double bytes_per_rep, Body body) {
  // Warm-up (page in, settle dispatch).
  body();
  const Stopwatch watch;
  for (int r = 0; r < reps; ++r) body();
  const double secs = watch.ElapsedSeconds();
  return bytes_per_rep * static_cast<double>(reps) / secs / 1e9;
}

/// Runs the whole kernel suite under the currently-installed dispatch
/// table; `out[i]` accumulates into scalar_gbps or dispatch_gbps.
void RunKernelSuite(KernelInputs* in, bool scalar_leg,
                    std::vector<KernelResult>* out) {
  double sink = 0.0;
  auto record = [&](const char* name, bool dense, double gbps) {
    for (KernelResult& r : *out) {
      if (r.name == name) {
        (scalar_leg ? r.scalar_gbps : r.dispatch_gbps) = gbps;
        return;
      }
    }
    KernelResult r;
    r.name = name;
    r.dense = dense;
    (scalar_leg ? r.scalar_gbps : r.dispatch_gbps) = gbps;
    out->push_back(r);
  };

  const double dn = static_cast<double>(kDenseN);
  record("axpy", true, TimeGbps(kDenseReps, 24.0 * dn, [&] {
           kernels::Axpy(1e-9, in->x.data(), in->y.data(), kDenseN);
         }));
  record("dot", true, TimeGbps(kDenseReps, 16.0 * dn, [&] {
           sink += kernels::Dot(in->x.data(), in->y.data(), kDenseN);
         }));
  record("scale", true, TimeGbps(kDenseReps, 16.0 * dn, [&] {
           kernels::Scale(1.0000000001, in->y.data(), kDenseN);
         }));
  record("squared_norm", true, TimeGbps(kDenseReps, 8.0 * dn, [&] {
           sink += kernels::SquaredNorm(in->x.data(), kDenseN);
         }));
  record("squared_distance", true, TimeGbps(kDenseReps, 16.0 * dn, [&] {
           sink += kernels::SquaredDistance(in->x.data(), in->y.data(),
                                            kDenseN);
         }));

  const double sn = static_cast<double>(kSparseNnz);
  // gather-dot streams idx (8 B) + val (8 B) + one gathered double.
  record("gather_dot", false, TimeGbps(kSparseReps, 24.0 * sn, [&] {
           sink += kernels::GatherDot(in->idx.data(), in->val.data(),
                                      kSparseNnz, in->dense.data());
         }));
  record("scatter_axpy", false, TimeGbps(kSparseReps, 32.0 * sn, [&] {
           kernels::ScatterAxpy(1e-9, in->idx.data(), in->val.data(),
                                kSparseNnz, in->dense.data());
         }));
  if (sink == 0.12345) std::printf("(unreachable sink)\n");
}

// --------------------------------------------------------------------
// Layer 2: end-to-end trainer clock throughput.
// --------------------------------------------------------------------

/// Faithful reimplementation of the pre-PR LocalWorkerSgd::RunClock: a
/// dense O(dim) update-buffer fill per clock, a dense O(dim) gradient
/// fill per batch, three passes over the batch (gradient, lazy L2,
/// apply), and an O(dim) FromDense scan to emit the update. This is the
/// baseline the touched-list rewrite is measured against.
struct LegacyWorkerSgd {
  const Dataset* dataset;
  DataShard shard;
  const LossFunction* loss;
  const LearningRateSchedule* schedule;
  LocalWorkerSgd::Options options;
  std::vector<double> update_buffer;
  std::vector<double> batch_grad;

  LegacyWorkerSgd(const Dataset* d, DataShard s, const LossFunction* l,
                  const LearningRateSchedule* sch,
                  LocalWorkerSgd::Options o)
      : dataset(d), shard(std::move(s)), loss(l), schedule(sch),
        options(o) {
    const size_t dim = static_cast<size_t>(d->dimension());
    update_buffer.assign(dim, 0.0);
    batch_grad.assign(dim, 0.0);
  }

  double RunClock(int clock, std::vector<double>* replica,
                  SparseVector* update) {
    const double eta = schedule->Rate(clock);
    std::fill(update_buffer.begin(), update_buffer.end(), 0.0);
    double loss_sum = 0.0;
    const auto& indices = shard.example_indices;
    size_t pos = 0;
    while (pos < indices.size()) {
      const size_t batch_end =
          std::min(pos + options.batch_size, indices.size());
      const size_t b = batch_end - pos;
      std::fill(batch_grad.begin(), batch_grad.end(), 0.0);
      const double inv_b = 1.0 / static_cast<double>(b);
      for (size_t k = pos; k < batch_end; ++k) {
        const Example& ex = dataset->example(indices[k]);
        loss_sum += AccumulateExampleGradient(
            *loss, ex.features, ex.label, *replica, inv_b, &batch_grad);
      }
      for (size_t k = pos; k < batch_end; ++k) {
        const Example& ex = dataset->example(indices[k]);
        for (size_t i = 0; i < ex.features.nnz(); ++i) {
          const size_t j = static_cast<size_t>(ex.features.index(i));
          batch_grad[j] += options.l2 * (*replica)[j] * inv_b;
        }
      }
      for (size_t k = pos; k < batch_end; ++k) {
        const Example& ex = dataset->example(indices[k]);
        for (size_t i = 0; i < ex.features.nnz(); ++i) {
          const size_t j = static_cast<size_t>(ex.features.index(i));
          const double g = batch_grad[j];
          if (g != 0.0) {
            (*replica)[j] -= eta * g;
            update_buffer[j] -= eta * g;
            batch_grad[j] = 0.0;
          }
        }
      }
      pos = batch_end;
    }
    *update = SparseVector::FromDense(update_buffer, 0.0);
    return loss_sum;
  }
};

struct E2eResult {
  double legacy_clocks_per_sec = 0.0;
  double rewritten_clocks_per_sec = 0.0;
  double max_update_abs_diff = 0.0;  // cross-check, not a benchmark
  double speedup() const {
    return legacy_clocks_per_sec > 0.0
               ? rewritten_clocks_per_sec / legacy_clocks_per_sec
               : 0.0;
  }
};

/// The regime the rewrite targets: model dimension >> shard nnz, so the
/// legacy per-batch dense fills dominate its runtime.
E2eResult RunE2e() {
  // Paper-shaped regime (URL: 3.2M features, ~500 nnz rows; §7.1 uses
  // mini-batches of 10% of a worker's shard): model dimension orders of
  // magnitude above the shard's support, so the legacy trainer's
  // per-batch O(dim) gradient fills dominate its clock time.
  SyntheticConfig config;
  config.num_examples = 256;
  config.num_features = 1 << 21;
  config.avg_nnz = 32;
  config.feature_skew = 1.05;
  config.margin_gap = 0.0;
  config.seed = 7;
  const Dataset dataset = GenerateSynthetic(config);
  auto loss = MakeLoss("logistic");
  FixedRate schedule(0.1);
  LocalWorkerSgd::Options options;
  options.batch_size = 26;  // ~10% of the shard
  options.l2 = 1e-4;
  DataShard shard;
  for (size_t i = 0; i < dataset.size(); ++i) {
    shard.example_indices.push_back(i);
  }
  const size_t dim = static_cast<size_t>(dataset.dimension());

  // Cross-check first: both trainers must produce the same update on the
  // same replica (scalar dispatch => bitwise; under AVX2 the gather-dot
  // margins may differ in the last ulp, so compare with a tolerance).
  E2eResult result;
  {
    std::vector<double> replica_a(dim, 0.0);
    std::vector<double> replica_b(dim, 0.0);
    SparseVector ua;
    SparseVector ub;
    LegacyWorkerSgd legacy(&dataset, shard, loss.get(), &schedule,
                           options);
    LocalWorkerSgd rewritten(&dataset, shard, loss.get(), &schedule,
                             options);
    legacy.RunClock(0, &replica_a, &ua);
    rewritten.RunClock(0, &replica_b, &ub);
    const SparseVector diff = SparseVector::Add(ua, ub, 1.0, -1.0);
    for (size_t i = 0; i < diff.nnz(); ++i) {
      result.max_update_abs_diff =
          std::max(result.max_update_abs_diff, std::fabs(diff.value(i)));
    }
    HETPS_CHECK(result.max_update_abs_diff < 1e-9)
        << "legacy/rewritten trainer updates diverge: "
        << result.max_update_abs_diff;
  }

  constexpr int kLegacyClocks = 10;
  constexpr int kRewrittenClocks = 200;
  {
    LegacyWorkerSgd legacy(&dataset, shard, loss.get(), &schedule,
                           options);
    std::vector<double> replica(dim, 0.0);
    SparseVector update;
    legacy.RunClock(0, &replica, &update);  // warm-up
    const Stopwatch watch;
    for (int c = 0; c < kLegacyClocks; ++c) {
      legacy.RunClock(c, &replica, &update);
    }
    result.legacy_clocks_per_sec =
        static_cast<double>(kLegacyClocks) / watch.ElapsedSeconds();
  }
  {
    LocalWorkerSgd rewritten(&dataset, shard, loss.get(), &schedule,
                             options);
    std::vector<double> replica(dim, 0.0);
    SparseVector update;
    rewritten.RunClock(0, &replica, &update);  // warm-up
    const Stopwatch watch;
    for (int c = 0; c < kRewrittenClocks; ++c) {
      rewritten.RunClock(c, &replica, &update);
    }
    result.rewritten_clocks_per_sec =
        static_cast<double>(kRewrittenClocks) / watch.ElapsedSeconds();
  }
  return result;
}

// --------------------------------------------------------------------
// Layer 3: the clock's cost per nonzero on the perfbench data shapes.
// --------------------------------------------------------------------

struct ClockShape {
  const char* name;
  SyntheticConfig config;
  size_t workers;  // the shard is 1/workers of the examples
  double rate;
};

/// The data of perfbench's sim-hetero, rpc-narrow and inproc-wide
/// workloads: the preset pool, shuffled by its own seed and split
/// contiguously, of which worker 0's shard is timed.
std::vector<ClockShape> ClockShapes() {
  SyntheticConfig wide = CtrLikeConfig(1.0);
  wide.num_features = 500000;
  return {{"url_16", UrlLikeConfig(8.0), 16, 2.0},
          {"ctr_3", CtrLikeConfig(0.25), 3, 0.3},
          {"ctr_wide_4", wide, 4, 0.3}};
}

/// RunClock's wall time per processed nonzero, in ns: the median of 5
/// repetitions of enough clocks for ~4M nonzeros each, after 3 warm-up
/// clocks. The replica keeps training across repetitions.
double RunClockNsPerNnz(const ClockShape& shape) {
  Dataset pool = GenerateSynthetic(shape.config);
  Rng pool_rng(shape.config.seed);
  pool.Shuffle(&pool_rng);
  const DataShard shard = SplitData(pool.size(), shape.workers,
                                    ShardingPolicy::kContiguous)[0];
  LogisticLoss loss;
  FixedRate schedule(shape.rate);
  LocalWorkerSgd::Options options;
  options.batch_size = LocalWorkerSgd::BatchSizeForFraction(shard.size(), 0.1);
  LocalWorkerSgd sgd(&pool, shard, &loss, &schedule, options);
  std::vector<double> replica(static_cast<size_t>(pool.dimension()), 0.0);
  SparseVector update;
  int clock = 0;
  for (; clock < 3; ++clock) sgd.RunClock(clock, &replica, &update);
  const size_t nnz = std::max<size_t>(1, sgd.ShardNnz());
  const int clocks = static_cast<int>((4000000 + nnz - 1) / nnz);
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const Stopwatch watch;
    for (int c = 0; c < clocks; ++c, ++clock) {
      sgd.RunClock(clock, &replica, &update);
    }
    reps.push_back(watch.ElapsedSeconds() * 1e9 /
                   (static_cast<double>(clocks) * static_cast<double>(nnz)));
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("kernels", argc > 1 ? argv[1] : "BENCH_kernels.json");

  const kernels::KernelIsa startup_isa = kernels::ActiveKernelIsa();
  const bool have_avx2 = kernels::CpuSupportsAvx2Fma();

  // --- 1. Kernel suite, scalar vs. dispatched -------------------------
  KernelInputs inputs = MakeInputs();
  std::vector<KernelResult> results;
  kernels::SetKernelIsaForTesting(kernels::KernelIsa::kScalar);
  RunKernelSuite(&inputs, /*scalar_leg=*/true, &results);
  kernels::ResetKernelIsaForTesting();
  RunKernelSuite(&inputs, /*scalar_leg=*/false, &results);

  double dense_log_sum = 0.0;
  int dense_count = 0;
  TextTable table({"kernel", "scalar GB/s", "dispatch GB/s", "speedup"});
  for (const KernelResult& r : results) {
    table.AddRow({r.name, Fmt(r.scalar_gbps), Fmt(r.dispatch_gbps),
                  Fmt(r.speedup()) + "x"});
    if (r.dense) {
      dense_log_sum += std::log(r.speedup());
      ++dense_count;
    }
  }
  const double dense_geomean =
      dense_count > 0 ? std::exp(dense_log_sum / dense_count) : 0.0;
  std::printf(
      "=== Kernel dispatch (active ISA: %s, n=%zu dense / nnz=%zu "
      "sparse) ===\n%s\ndense-kernel geomean speedup: %.2fx "
      "(acceptance floor: 2x%s)\n\n",
      kernels::KernelIsaName(startup_isa), kDenseN, kSparseNnz,
      table.ToString().c_str(), dense_geomean,
      have_avx2 ? "" : "; skipped, no AVX2+FMA on this host");

  // --- 2. End-to-end trainer clock throughput -------------------------
  const E2eResult e2e = RunE2e();
  TextTable e2e_table({"trainer", "clocks/sec"});
  e2e_table.AddRow(
      {"legacy three-pass (O(dim))", Fmt(e2e.legacy_clocks_per_sec)});
  e2e_table.AddRow(
      {"touched-list (O(nnz))", Fmt(e2e.rewritten_clocks_per_sec)});
  std::printf(
      "=== Trainer clock throughput (dim=%d, 256 examples x 32 nnz, "
      "batch 26) ===\n%s\ne2e speedup: %.2fx (acceptance floor: 3x; "
      "update cross-check max |diff| %.2e)\n\n",
      1 << 21, e2e_table.ToString().c_str(), e2e.speedup(),
      e2e.max_update_abs_diff);

  // --- 3. RunClock per nonzero on the perfbench data shapes ----------
  TextTable clock_table({"shape", "ns/nnz"});
  std::vector<std::pair<std::string, double>> clock_costs;
  for (const ClockShape& shape : ClockShapes()) {
    clock_costs.emplace_back(shape.name, RunClockNsPerNnz(shape));
    clock_table.AddRow({shape.name, Fmt(clock_costs.back().second)});
  }
  std::printf(
      "=== RunClock per nonzero (one worker's shard, median of 5) "
      "===\n%s\n",
      clock_table.ToString().c_str());

  // --- BENCH_kernels.json ---------------------------------------------
  report.Set("active_isa", kernels::KernelIsaName(startup_isa));
  report.Set("avx2_supported", have_avx2);
  for (const KernelResult& r : results) {
    const std::string k = "kernels." + r.name + ".";
    report.Set(k + "scalar_gbps", r.scalar_gbps);
    report.Set(k + "dispatch_gbps", r.dispatch_gbps);
    report.Set(k + "speedup", r.speedup());
  }
  report.Set("summary.dense_geomean_speedup", dense_geomean);
  report.Set("summary.e2e_legacy_clocks_per_sec", e2e.legacy_clocks_per_sec);
  report.Set("summary.e2e_rewritten_clocks_per_sec",
             e2e.rewritten_clocks_per_sec);
  report.Set("summary.e2e_speedup", e2e.speedup());
  report.Set("summary.e2e_max_update_abs_diff", e2e.max_update_abs_diff);
  for (const auto& [shape, ns] : clock_costs) {
    report.Set("run_clock." + shape + ".ns_per_nnz", ns);
  }
  report.Gate("dense_geomean_speedup", dense_geomean, GateOp::kAtLeast, 2.0,
              have_avx2 ? "" : "no AVX2+FMA on this host");
  report.Gate("e2e_speedup", e2e.speedup(), GateOp::kAtLeast, 3.0);
  return report.Finish();
}
