// Microbenchmarks (google-benchmark) of the kernels and parameter-server
// operations on the critical path: BLAS-1, sparse ops, consolidation
// rules, partition splitting, and push/pull.

#include <benchmark/benchmark.h>

#include "core/dyn_sgd.h"
#include "core/param_block.h"
#include "math/kernels.h"
#include "math/sparse_vector.h"
#include "ps/parameter_server.h"
#include "util/rng.h"

namespace hetps {
namespace {

std::vector<double> RandomDense(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.NextGaussian();
  return v;
}

SparseVector RandomSparse(int64_t dim, size_t nnz, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> idx;
  idx.reserve(nnz);
  const int64_t stride = dim / static_cast<int64_t>(nnz);
  for (size_t i = 0; i < nnz; ++i) {
    idx.push_back(static_cast<int64_t>(i) * stride +
                  static_cast<int64_t>(rng.NextUint64(
                      static_cast<uint64_t>(stride))));
  }
  SparseVector v;
  for (int64_t j : idx) v.PushBack(j, rng.NextGaussian());
  return v;
}

void BM_Axpy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = RandomDense(n, 1);
  std::vector<double> y = RandomDense(n, 2);
  for (auto _ : state) {
    kernels::Axpy(0.5, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Axpy)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_Dot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x = RandomDense(n, 1);
  std::vector<double> y = RandomDense(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::Dot(x.data(), y.data(), n));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Dot)->Arg(1 << 10)->Arg(1 << 17);

void BM_SparseDot(benchmark::State& state) {
  const int64_t dim = 1 << 17;
  const size_t nnz = static_cast<size_t>(state.range(0));
  SparseVector v = RandomSparse(dim, nnz, 3);
  std::vector<double> w = RandomDense(static_cast<size_t>(dim), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.Dot(w));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(nnz));
}
BENCHMARK(BM_SparseDot)->Arg(64)->Arg(512)->Arg(4096);

void BM_SparseMerge(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  SparseVector a = RandomSparse(1 << 17, nnz, 5);
  SparseVector b = RandomSparse(1 << 17, nnz, 6);
  for (auto _ : state) {
    SparseVector c = SparseVector::Add(a, b);
    benchmark::DoNotOptimize(c.nnz());
  }
}
BENCHMARK(BM_SparseMerge)->Arg(64)->Arg(4096);

void BM_ParamBlockAdd(benchmark::State& state) {
  const size_t dim = 1 << 14;
  const bool sparse = state.range(0) != 0;
  ParamBlock block(dim, sparse ? ParamBlock::Layout::kSparse
                               : ParamBlock::Layout::kDense);
  SparseVector u = RandomSparse(static_cast<int64_t>(dim), 256, 7);
  for (auto _ : state) {
    block.Add(u, 0.01);
  }
  state.SetLabel(sparse ? "sparse-layout" : "dense-layout");
}
BENCHMARK(BM_ParamBlockAdd)->Arg(0)->Arg(1);

void BM_ConsolidateSsp(benchmark::State& state) {
  const size_t dim = 1 << 14;
  SspRule rule;
  rule.Reset(dim, 8);
  ParamBlock w(dim);
  SparseVector u = RandomSparse(static_cast<int64_t>(dim), 256, 8);
  int clock = 0;
  for (auto _ : state) {
    rule.OnPush(clock % 8, clock / 8, u, &w);
    ++clock;
  }
}
BENCHMARK(BM_ConsolidateSsp);

void BM_ConsolidateDyn(benchmark::State& state) {
  const size_t dim = 1 << 14;
  DynSgdRule rule;
  rule.Reset(dim, 8);
  ParamBlock w(dim);
  SparseVector u = RandomSparse(static_cast<int64_t>(dim), 256, 9);
  int clock = 0;
  for (auto _ : state) {
    const int worker = clock % 8;
    rule.OnPush(worker, clock / 8, u, &w);
    rule.OnPull(worker, clock / 8);
    ++clock;
  }
}
BENCHMARK(BM_ConsolidateDyn);

void BM_PartitionSplit(benchmark::State& state) {
  Partitioner part(PartitionScheme::kRangeHash, 1 << 17, 10, 20);
  SparseVector u = RandomSparse(1 << 17, 2048, 10);
  for (auto _ : state) {
    auto pieces = part.SplitByPartition(u);
    benchmark::DoNotOptimize(pieces.size());
  }
}
BENCHMARK(BM_PartitionSplit);

void BM_PsPushPull(benchmark::State& state) {
  const int64_t dim = 1 << 14;
  DynSgdRule rule;
  PsOptions opts;
  opts.num_servers = 4;
  ParameterServer ps(dim, 4, rule, opts);
  SparseVector u = RandomSparse(dim, 256, 11);
  int clock = 0;
  for (auto _ : state) {
    const int worker = clock % 4;
    ps.Push(worker, clock / 4, u);
    if (clock % 4 == 3) {
      auto w = ps.PullFull(worker);
      benchmark::DoNotOptimize(w.data());
    }
    ++clock;
  }
}
BENCHMARK(BM_PsPushPull);

}  // namespace
}  // namespace hetps
