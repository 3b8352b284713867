#ifndef HETPS_MODELS_KMEANS_H_
#define HETPS_MODELS_KMEANS_H_

#include <cstdint>
#include <vector>

#include "core/sync_policy.h"
#include "data/dataset.h"
#include "data/sharding.h"
#include "engine/workload.h"
#include "util/status.h"

namespace hetps {

/// Distributed k-means on the parameter server — one of the prototype's
/// "ready-to-run algorithms" (Appendix D) and a demonstration that the PS
/// API generalizes beyond linear models: the parameter is the flattened
/// k×dim centroid matrix; each worker pushes SGD-style centroid moves
/// c += η (x − c) for its assigned points.
struct KMeansConfig {
  int k = 4;
  double learning_rate = 0.3;
  int num_workers = 2;
  int num_servers = 1;
  int max_clocks = 10;
  SyncPolicy sync = SyncPolicy::Ssp(2);
  /// Consolidation rule name ("ssp" | "con" | "dyn").
  std::string rule = "dyn";
  uint64_t seed = 5;
};

struct KMeansModel {
  int k = 0;
  int64_t dim = 0;
  /// Row-major k×dim centroid matrix.
  std::vector<double> centroids;

  /// Index of the nearest centroid for `x`.
  int Assign(const SparseVector& x) const;

  /// Mean squared distance of every example to its nearest centroid.
  double Inertia(const Dataset& dataset) const;
};

/// One worker's clock: each point of its shard moves its nearest
/// centroid, c += η (x − c), applied to the replica at once and summed
/// into the clock's update. Names no written keys.
class KMeansWorkload final : public Workload {
 public:
  KMeansWorkload(const Dataset* dataset, DataShard shard,
                 const KMeansConfig& config);

  void RunClock(int clock, std::vector<double>* replica,
                SparseVector* update) override;

 private:
  const Dataset* dataset_;
  DataShard shard_;
  KMeansConfig config_;
  size_t dim_;
  std::vector<double> update_;  // dense, zeroed at each clock's start
};

/// Farthest-point (k-means++-style) seeding over a sample, so
/// well-separated clusters each get a seed: worker 0's clock-0 update.
SparseVector InitialCentroids(const Dataset& dataset,
                              const KMeansConfig& config);

/// Trains one KMeansWorkload per worker on TrainThreaded's start-up
/// (RunModelWorkers) against a shared PS, after the priming push.
Result<KMeansModel> TrainKMeans(const Dataset& dataset,
                                const KMeansConfig& config);

}  // namespace hetps

#endif  // HETPS_MODELS_KMEANS_H_
