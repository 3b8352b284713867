#ifndef HETPS_MODELS_MATRIX_FACTORIZATION_H_
#define HETPS_MODELS_MATRIX_FACTORIZATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/sync_policy.h"
#include "data/sharding.h"
#include "engine/workload.h"
#include "util/rng.h"
#include "util/status.h"

namespace hetps {

/// One observed rating.
struct Rating {
  int user = 0;
  int item = 0;
  double value = 0.0;
};

/// A sparse ratings matrix for factorization — the large-scale matrix
/// factorization workload of Gemulla et al. [18] that the paper cites as
/// a canonical PS use case (§6: "some tasks need ... a portion of the
/// parameter", which is exactly MF's per-rating factor access).
class RatingsDataset {
 public:
  RatingsDataset() = default;
  RatingsDataset(std::vector<Rating> ratings, int num_users,
                 int num_items);

  size_t size() const { return ratings_.size(); }
  bool empty() const { return ratings_.empty(); }
  int num_users() const { return num_users_; }
  int num_items() const { return num_items_; }
  const Rating& rating(size_t i) const { return ratings_[i]; }

  void Add(const Rating& rating);
  void Shuffle(Rng* rng);

  /// Mean rating value (useful as a bias baseline).
  double MeanRating() const;

 private:
  std::vector<Rating> ratings_;
  int num_users_ = 0;
  int num_items_ = 0;
};

/// Generates a low-rank-plus-noise ratings matrix: U, V with Gaussian
/// entries, observations sampled uniformly. Deterministic per seed.
struct SyntheticRatingsConfig {
  int num_users = 200;
  int num_items = 120;
  int true_rank = 4;
  size_t num_ratings = 4000;
  double noise_stddev = 0.05;
  uint64_t seed = 77;
};
RatingsDataset GenerateSyntheticRatings(const SyntheticRatingsConfig& c);

struct MatrixFactorizationConfig {
  int rank = 8;
  double learning_rate = 0.05;
  double l2 = 0.01;
  int num_workers = 2;
  int num_servers = 2;
  int max_clocks = 15;
  SyncPolicy sync = SyncPolicy::Ssp(2);
  /// Consolidation rule name ("ssp" | "con" | "dyn").
  std::string rule = "dyn";
  /// Scale of the random factor initialization.
  double init_stddev = 0.1;
  uint64_t seed = 13;
};

/// A trained factor model: parameter layout on the PS is the row-major
/// user-factor matrix followed by the item-factor matrix.
struct MatrixFactorizationModel {
  int rank = 0;
  int num_users = 0;
  int num_items = 0;
  std::vector<double> user_factors;  // num_users x rank
  std::vector<double> item_factors;  // num_items x rank

  double Predict(int user, int item) const;
  double Rmse(const RatingsDataset& dataset) const;
};

/// One worker's clock: biased SGD over the observed entries of its shard,
/// p += η(e·q − λp), q += η(e·p − λq), each step applied to the replica at
/// once and summed into the clock's update. Names no written keys.
class MatrixFactorizationWorkload final : public Workload {
 public:
  MatrixFactorizationWorkload(const RatingsDataset* dataset, DataShard shard,
                              const MatrixFactorizationConfig& config);

  void RunClock(int clock, std::vector<double>* replica,
                SparseVector* update) override;

 private:
  const RatingsDataset* dataset_;
  DataShard shard_;
  MatrixFactorizationConfig config_;
  size_t user_dim_;
  std::vector<double> update_;  // dense, zeroed at each clock's start
};

/// The random factor initialization, which worker 0 pushes as its clock-0
/// update so every consolidation rule stays bookkeeping-consistent.
SparseVector InitialFactors(const RatingsDataset& dataset,
                            const MatrixFactorizationConfig& config);

/// Trains one MatrixFactorizationWorkload per worker on TrainThreaded's
/// start-up (RunModelWorkers) against a shared PS, after the priming push.
Result<MatrixFactorizationModel> TrainMatrixFactorization(
    const RatingsDataset& dataset, const MatrixFactorizationConfig& config);

}  // namespace hetps

#endif  // HETPS_MODELS_MATRIX_FACTORIZATION_H_
