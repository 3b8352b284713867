#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "util/logging.h"

namespace hetps {

std::string SyntheticConfig::DebugString() const {
  std::ostringstream os;
  os << "SyntheticConfig(n=" << num_examples << ", d=" << num_features
     << ", nnz=" << avg_nnz << ", skew=" << feature_skew
     << ", noise=" << label_noise << ", seed=" << seed << ")";
  return os.str();
}

std::vector<double> GenerateGroundTruth(int64_t num_features,
                                        double density, Rng* rng) {
  std::vector<double> w(static_cast<size_t>(num_features), 0.0);
  for (auto& v : w) {
    if (rng->NextBernoulli(density)) {
      v = rng->NextGaussian();
    }
  }
  return w;
}

Dataset GenerateSynthetic(const SyntheticConfig& config) {
  HETPS_CHECK(config.num_features > 0) << "num_features must be positive";
  HETPS_CHECK(config.avg_nnz > 0) << "avg_nnz must be positive";
  Rng rng(config.seed);
  const std::vector<double> truth =
      GenerateGroundTruth(config.num_features, config.truth_density, &rng);

  std::vector<Example> examples;
  examples.reserve(config.num_examples);
  std::set<int64_t> picked;
  for (size_t i = 0; i < config.num_examples; ++i) {
    SparseVector features;
    double margin = 0.0;
    // Re-draw boundary-hugging examples so the problem has a margin gap
    // (bounded retries keep generation deterministic and fast).
    for (int attempt = 0; attempt < 16; ++attempt) {
      picked.clear();
      // Poisson-ish row length around avg_nnz (clamped to >= 1).
      const double jitter = rng.NextGaussian(0.0, 0.25);
      size_t nnz = static_cast<size_t>(std::max(
          1.0, static_cast<double>(config.avg_nnz) * (1.0 + jitter)));
      nnz = std::min(nnz, static_cast<size_t>(config.num_features));
      // Rng::NextZipf never draws the last index, so a skewed row can
      // hold at most num_features - 1 distinct features; asking for all
      // of them would never finish. Rows below the cap draw exactly as
      // before.
      if (config.feature_skew > 0.0 && config.num_features > 1) {
        nnz = std::min(nnz, static_cast<size_t>(config.num_features - 1));
      }
      while (picked.size() < nnz) {
        int64_t idx;
        if (config.feature_skew > 0.0) {
          idx = static_cast<int64_t>(rng.NextZipf(
              static_cast<uint64_t>(config.num_features),
              config.feature_skew));
        } else {
          idx = static_cast<int64_t>(rng.NextUint64(
              static_cast<uint64_t>(config.num_features)));
        }
        picked.insert(idx);
      }
      features = SparseVector();
      for (int64_t idx : picked) {
        const double value =
            config.binary_features
                ? 1.0
                : rng.NextGaussian(0.0, config.value_stddev);
        features.PushBack(idx, value);
      }
      // Normalizing the margin by sqrt(nnz) keeps the problem's
      // difficulty independent of row length.
      margin = features.Dot(truth) /
               std::sqrt(static_cast<double>(features.nnz()));
      if (std::fabs(margin) >= config.margin_gap) break;
    }
    double label = margin >= 0.0 ? 1.0 : -1.0;
    if (rng.NextBernoulli(config.label_noise)) label = -label;
    examples.push_back(Example{std::move(features), label});
  }
  return Dataset(std::move(examples), config.num_features);
}

SyntheticConfig UrlLikeConfig(double scale, uint64_t seed) {
  SyntheticConfig c;
  // URL: 2.4M x 3.2M, ~500 nnz, binary lexical features. Scaled down; the
  // nnz/dim ratio and binary values are preserved.
  c.num_examples = static_cast<size_t>(4000 * scale);
  c.num_features = 3000;
  c.avg_nnz = 40;
  c.feature_skew = 1.05;
  c.truth_density = 0.25;
  c.label_noise = 0.03;
  c.margin_gap = 0.35;
  c.binary_features = true;
  c.seed = seed;
  return c;
}

SyntheticConfig CtrLikeConfig(double scale, uint64_t seed) {
  SyntheticConfig c;
  // CTR: 300M x 58M, ~100 nnz, one-hot categorical features with strongly
  // skewed popularity and noisy clicks. Scaled down accordingly.
  c.num_examples = static_cast<size_t>(8000 * scale);
  c.num_features = 6000;
  c.avg_nnz = 20;
  c.feature_skew = 1.3;
  c.truth_density = 0.15;
  c.label_noise = 0.08;
  // CTR-style data is far noisier than URL: keep boundary-adjacent
  // examples so gradients stay noisy near the optimum.
  c.margin_gap = 0.10;
  c.binary_features = true;
  c.seed = seed;
  return c;
}

}  // namespace hetps
