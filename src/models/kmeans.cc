#include "models/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "core/consolidation.h"
#include "engine/threaded_trainer.h"
#include "ps/parameter_server.h"
#include "util/rng.h"

namespace hetps {
namespace {

// Squared distance between sparse x and dense centroid row.
double SquaredDistanceToCentroid(const SparseVector& x,
                                 const std::vector<double>& params,
                                 size_t row_offset, size_t dim) {
  // ||x - c||^2 = ||c||^2 - 2 <x, c> + ||x||^2
  double c_norm = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double c = params[row_offset + j];
    c_norm += c * c;
  }
  double dot = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    dot += x.value(i) * params[row_offset + static_cast<size_t>(x.index(i))];
  }
  return c_norm - 2.0 * dot + x.SquaredNorm();
}

int NearestCentroid(const SparseVector& x, const std::vector<double>& params,
                    int k, size_t dim) {
  int best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (int c = 0; c < k; ++c) {
    const double d = SquaredDistanceToCentroid(
        x, params, static_cast<size_t>(c) * dim, dim);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

}  // namespace

int KMeansModel::Assign(const SparseVector& x) const {
  return NearestCentroid(x, centroids, k, static_cast<size_t>(dim));
}

double KMeansModel::Inertia(const Dataset& dataset) const {
  if (dataset.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const SparseVector& x = dataset.example(i).features;
    const int c = Assign(x);
    total += SquaredDistanceToCentroid(
        x, centroids, static_cast<size_t>(c) * static_cast<size_t>(dim),
        static_cast<size_t>(dim));
  }
  return total / static_cast<double>(dataset.size());
}

KMeansWorkload::KMeansWorkload(const Dataset* dataset, DataShard shard,
                               const KMeansConfig& config)
    : dataset_(dataset),
      shard_(std::move(shard)),
      config_(config),
      dim_(static_cast<size_t>(dataset->dimension())),
      update_(static_cast<size_t>(config.k) * dim_, 0.0) {}

void KMeansWorkload::RunClock(int /*clock*/, std::vector<double>* replica,
                              SparseVector* update) {
  std::vector<double>& params = *replica;
  const double eta = config_.learning_rate;
  std::fill(update_.begin(), update_.end(), 0.0);
  for (size_t i : shard_.example_indices) {
    const SparseVector& x = dataset_->example(i).features;
    const size_t off =
        static_cast<size_t>(NearestCentroid(x, params, config_.k, dim_)) *
        dim_;
    // c += eta (x - c), as the dense -eta c and then the sparse +eta x.
    for (size_t j = 0; j < dim_; ++j) {
      const double delta = eta * (0.0 - params[off + j]);
      params[off + j] += delta;
      update_[off + j] += delta;
    }
    for (size_t n = 0; n < x.nnz(); ++n) {
      const size_t j = static_cast<size_t>(x.index(n));
      const double delta = eta * x.value(n);
      params[off + j] += delta;
      update_[off + j] += delta;
    }
  }
  *update = SparseVector::FromDense(update_, 0.0);
}

SparseVector InitialCentroids(const Dataset& dataset,
                              const KMeansConfig& config) {
  const size_t dim = static_cast<size_t>(dataset.dimension());
  Rng rng(config.seed);
  const size_t sample = std::min<size_t>(dataset.size(), 512);
  std::vector<size_t> chosen;
  chosen.push_back(static_cast<size_t>(rng.NextUint64(sample)));
  auto dist2 = [&](size_t a, size_t b) {
    const SparseVector& xa = dataset.example(a).features;
    const SparseVector& xb = dataset.example(b).features;
    const SparseVector diff = SparseVector::Add(xa, xb, 1.0, -1.0);
    return diff.SquaredNorm();
  };
  while (chosen.size() < static_cast<size_t>(config.k)) {
    size_t best = 0;
    double best_d = -1.0;
    for (size_t i = 0; i < sample; ++i) {
      double nearest = 1e300;
      for (size_t c : chosen) nearest = std::min(nearest, dist2(i, c));
      if (nearest > best_d) {
        best_d = nearest;
        best = i;
      }
    }
    chosen.push_back(best);
  }
  std::vector<double> init(static_cast<size_t>(config.k) * dim, 0.0);
  for (int c = 0; c < config.k; ++c) {
    const SparseVector& x =
        dataset.example(chosen[static_cast<size_t>(c)]).features;
    for (size_t i = 0; i < x.nnz(); ++i) {
      init[static_cast<size_t>(c) * dim + static_cast<size_t>(x.index(i))] =
          x.value(i);
    }
  }
  return SparseVector::FromDense(init, 0.0);
}

Result<KMeansModel> TrainKMeans(const Dataset& dataset,
                                const KMeansConfig& config) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (config.k <= 0) return Status::InvalidArgument("k must be positive");
  if (config.learning_rate <= 0.0 || config.learning_rate >= 1.0) {
    return Status::InvalidArgument("learning_rate must be in (0,1)");
  }
  if (static_cast<size_t>(config.k) > dataset.size()) {
    return Status::InvalidArgument("k exceeds dataset size");
  }
  const std::unique_ptr<ConsolidationRule> rule =
      MakeConsolidationRule(config.rule);
  PsOptions ps_opts;
  ps_opts.num_servers = config.num_servers;
  ps_opts.sync = config.sync;
  ParameterServer ps(static_cast<int64_t>(config.k) * dataset.dimension(),
                     config.num_workers, *rule, ps_opts);
  // A single priming push keeps every rule's bookkeeping consistent (it
  // is just an ordinary update).
  ps.Push(/*worker=*/0, /*clock=*/0, InitialCentroids(dataset, config));

  std::vector<std::unique_ptr<Workload>> workloads;
  for (const DataShard& shard :
       SplitData(dataset.size(), static_cast<size_t>(config.num_workers),
                 ShardingPolicy::kContiguous)) {
    workloads.push_back(
        std::make_unique<KMeansWorkload>(&dataset, shard, config));
  }
  HETPS_RETURN_NOT_OK(RunModelWorkers(&ps, config.max_clocks, workloads));

  KMeansModel model;
  model.k = config.k;
  model.dim = dataset.dimension();
  model.centroids = ps.Snapshot();
  return model;
}

}  // namespace hetps
