#include "models/matrix_factorization.h"

#include <cmath>
#include <memory>

#include "core/consolidation.h"
#include "engine/threaded_trainer.h"
#include "ps/parameter_server.h"
#include "util/logging.h"

namespace hetps {

RatingsDataset::RatingsDataset(std::vector<Rating> ratings, int num_users,
                               int num_items)
    : ratings_(std::move(ratings)),
      num_users_(num_users),
      num_items_(num_items) {
  for (const Rating& r : ratings_) {
    HETPS_CHECK(r.user >= 0 && r.user < num_users_) << "user out of range";
    HETPS_CHECK(r.item >= 0 && r.item < num_items_) << "item out of range";
  }
}

void RatingsDataset::Add(const Rating& rating) {
  HETPS_CHECK(rating.user >= 0) << "negative user";
  HETPS_CHECK(rating.item >= 0) << "negative item";
  num_users_ = std::max(num_users_, rating.user + 1);
  num_items_ = std::max(num_items_, rating.item + 1);
  ratings_.push_back(rating);
}

void RatingsDataset::Shuffle(Rng* rng) {
  rng->Shuffle(&ratings_);
}

double RatingsDataset::MeanRating() const {
  if (ratings_.empty()) return 0.0;
  double sum = 0.0;
  for (const Rating& r : ratings_) sum += r.value;
  return sum / static_cast<double>(ratings_.size());
}

RatingsDataset GenerateSyntheticRatings(const SyntheticRatingsConfig& c) {
  HETPS_CHECK(c.num_users > 0 && c.num_items > 0 && c.true_rank > 0)
      << "bad synthetic-ratings shape";
  Rng rng(c.seed);
  const size_t uf = static_cast<size_t>(c.num_users) *
                    static_cast<size_t>(c.true_rank);
  const size_t vf = static_cast<size_t>(c.num_items) *
                    static_cast<size_t>(c.true_rank);
  std::vector<double> u(uf);
  std::vector<double> v(vf);
  const double scale = 1.0 / std::sqrt(static_cast<double>(c.true_rank));
  for (auto& x : u) x = rng.NextGaussian(0.0, scale);
  for (auto& x : v) x = rng.NextGaussian(0.0, scale);
  std::vector<Rating> ratings;
  ratings.reserve(c.num_ratings);
  for (size_t k = 0; k < c.num_ratings; ++k) {
    Rating r;
    r.user = static_cast<int>(rng.NextUint64(
        static_cast<uint64_t>(c.num_users)));
    r.item = static_cast<int>(rng.NextUint64(
        static_cast<uint64_t>(c.num_items)));
    double dot = 0.0;
    for (int f = 0; f < c.true_rank; ++f) {
      dot += u[static_cast<size_t>(r.user) * c.true_rank + f] *
             v[static_cast<size_t>(r.item) * c.true_rank + f];
    }
    r.value = dot + rng.NextGaussian(0.0, c.noise_stddev);
    ratings.push_back(r);
  }
  return RatingsDataset(std::move(ratings), c.num_users, c.num_items);
}

double MatrixFactorizationModel::Predict(int user, int item) const {
  HETPS_CHECK(user >= 0 && user < num_users) << "user out of range";
  HETPS_CHECK(item >= 0 && item < num_items) << "item out of range";
  double dot = 0.0;
  for (int f = 0; f < rank; ++f) {
    dot += user_factors[static_cast<size_t>(user) * rank + f] *
           item_factors[static_cast<size_t>(item) * rank + f];
  }
  return dot;
}

double MatrixFactorizationModel::Rmse(const RatingsDataset& dataset) const {
  if (dataset.empty()) return 0.0;
  double sq = 0.0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const Rating& r = dataset.rating(i);
    const double e = Predict(r.user, r.item) - r.value;
    sq += e * e;
  }
  return std::sqrt(sq / static_cast<double>(dataset.size()));
}

namespace {

/// Parameters on the PS: the user factors, then the item factors.
size_t FactorDim(const RatingsDataset& dataset, int rank) {
  return (static_cast<size_t>(dataset.num_users()) +
          static_cast<size_t>(dataset.num_items())) *
         static_cast<size_t>(rank);
}

}  // namespace

MatrixFactorizationWorkload::MatrixFactorizationWorkload(
    const RatingsDataset* dataset, DataShard shard,
    const MatrixFactorizationConfig& config)
    : dataset_(dataset),
      shard_(std::move(shard)),
      config_(config),
      user_dim_(static_cast<size_t>(dataset->num_users()) *
                static_cast<size_t>(config.rank)),
      update_(FactorDim(*dataset, config.rank), 0.0) {}

void MatrixFactorizationWorkload::RunClock(int /*clock*/,
                                           std::vector<double>* replica,
                                           SparseVector* update) {
  std::vector<double>& w = *replica;
  const int rank = config_.rank;
  std::fill(update_.begin(), update_.end(), 0.0);
  for (size_t i : shard_.example_indices) {
    const Rating& r = dataset_->rating(i);
    const size_t po = static_cast<size_t>(r.user) * rank;
    const size_t qo = user_dim_ + static_cast<size_t>(r.item) * rank;
    double dot = 0.0;
    for (int f = 0; f < rank; ++f) {
      dot += w[po + f] * w[qo + f];
    }
    const double e = r.value - dot;
    for (int f = 0; f < rank; ++f) {
      const double p = w[po + f];
      const double q = w[qo + f];
      const double dp = config_.learning_rate * (e * q - config_.l2 * p);
      const double dq = config_.learning_rate * (e * p - config_.l2 * q);
      w[po + f] += dp;
      w[qo + f] += dq;
      update_[po + f] += dp;
      update_[qo + f] += dq;
    }
  }
  *update = SparseVector::FromDense(update_, 0.0);
}

SparseVector InitialFactors(const RatingsDataset& dataset,
                            const MatrixFactorizationConfig& config) {
  Rng rng(config.seed);
  std::vector<double> init(FactorDim(dataset, config.rank));
  for (auto& x : init) {
    x = rng.NextGaussian(0.0, config.init_stddev);
  }
  return SparseVector::FromDense(init, 0.0);
}

Result<MatrixFactorizationModel> TrainMatrixFactorization(
    const RatingsDataset& dataset,
    const MatrixFactorizationConfig& config) {
  if (dataset.empty()) return Status::InvalidArgument("empty ratings");
  if (config.rank <= 0) return Status::InvalidArgument("rank must be > 0");
  if (config.learning_rate <= 0.0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  if (config.num_workers <= 0 || config.num_servers <= 0) {
    return Status::InvalidArgument("need positive worker/server counts");
  }
  const std::unique_ptr<ConsolidationRule> rule =
      MakeConsolidationRule(config.rule);
  PsOptions ps_opts;
  ps_opts.num_servers = config.num_servers;
  ps_opts.sync = config.sync;
  ParameterServer ps(static_cast<int64_t>(FactorDim(dataset, config.rank)),
                     config.num_workers, *rule, ps_opts);
  ps.Push(/*worker=*/0, /*clock=*/0, InitialFactors(dataset, config));

  std::vector<std::unique_ptr<Workload>> workloads;
  for (const DataShard& shard :
       SplitData(dataset.size(), static_cast<size_t>(config.num_workers),
                 ShardingPolicy::kContiguous)) {
    workloads.push_back(std::make_unique<MatrixFactorizationWorkload>(
        &dataset, shard, config));
  }
  HETPS_RETURN_NOT_OK(RunModelWorkers(&ps, config.max_clocks, workloads));

  MatrixFactorizationModel model;
  model.rank = config.rank;
  model.num_users = dataset.num_users();
  model.num_items = dataset.num_items();
  const std::vector<double> w = ps.Snapshot();
  const long user_dim = static_cast<long>(model.num_users) * model.rank;
  model.user_factors.assign(w.begin(), w.begin() + user_dim);
  model.item_factors.assign(w.begin() + user_dim, w.end());
  return model;
}

}  // namespace hetps
