#include "models/lda.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "core/consolidation.h"
#include "engine/threaded_trainer.h"
#include "ps/parameter_server.h"
#include "util/logging.h"

namespace hetps {

void Corpus::AddDocument(std::vector<int> word_ids) {
  for (int w : word_ids) {
    HETPS_CHECK(w >= 0) << "negative word id";
    vocab_size_ = std::max(vocab_size_, w + 1);
  }
  total_tokens_ += word_ids.size();
  documents_.push_back(std::move(word_ids));
}

Corpus GenerateSyntheticCorpus(const SyntheticCorpusConfig& config) {
  HETPS_CHECK(config.num_topics > 0 && config.words_per_topic > 0)
      << "bad corpus shape";
  Rng rng(config.seed);
  Corpus corpus;
  const int vocab = config.num_topics * config.words_per_topic;
  for (int d = 0; d < config.num_documents; ++d) {
    // One or two dominant topics per document.
    const int t1 = static_cast<int>(
        rng.NextUint64(static_cast<uint64_t>(config.num_topics)));
    int t2 = t1;
    if (rng.NextBernoulli(0.4)) {
      t2 = static_cast<int>(
          rng.NextUint64(static_cast<uint64_t>(config.num_topics)));
    }
    std::vector<int> words;
    words.reserve(static_cast<size_t>(config.tokens_per_document));
    for (int i = 0; i < config.tokens_per_document; ++i) {
      int topic;
      if (rng.NextBernoulli(config.intruder_fraction)) {
        topic = static_cast<int>(
            rng.NextUint64(static_cast<uint64_t>(config.num_topics)));
      } else {
        topic = rng.NextBernoulli(0.5) ? t1 : t2;
      }
      const int word =
          topic * config.words_per_topic +
          static_cast<int>(rng.NextUint64(
              static_cast<uint64_t>(config.words_per_topic)));
      words.push_back(word);
    }
    corpus.AddDocument(std::move(words));
  }
  HETPS_CHECK(corpus.vocab_size() <= vocab) << "vocab overflow";
  return corpus;
}

double LdaModel::WordProbability(int topic, int word, double beta) const {
  HETPS_CHECK(topic >= 0 && topic < num_topics) << "topic out of range";
  HETPS_CHECK(word >= 0 && word < vocab_size) << "word out of range";
  const double nwt = std::max(
      0.0, topic_word_counts[static_cast<size_t>(topic) * vocab_size +
                             static_cast<size_t>(word)]);
  const double nt = std::max(0.0, topic_totals[static_cast<size_t>(topic)]);
  return (nwt + beta) / (nt + beta * vocab_size);
}

std::vector<int> LdaModel::TopWords(int topic, int k) const {
  std::vector<int> order(static_cast<size_t>(vocab_size));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ca =
        topic_word_counts[static_cast<size_t>(topic) * vocab_size + a];
    const double cb =
        topic_word_counts[static_cast<size_t>(topic) * vocab_size + b];
    return ca != cb ? ca > cb : a < b;
  });
  order.resize(static_cast<size_t>(std::min(k, vocab_size)));
  return order;
}

namespace {

/// Parameters on the PS: K×V word-topic counts, then K topic totals.
size_t CountDim(const Corpus& corpus, int topics) {
  return static_cast<size_t>(topics) *
         (static_cast<size_t>(corpus.vocab_size()) + 1);
}

}  // namespace

LdaWorkload::LdaWorkload(const Corpus* corpus, DataShard shard,
                         const LdaConfig& config, int worker)
    : corpus_(corpus),
      shard_(std::move(shard)),
      config_(config),
      rng_(Rng(config.seed).Fork(static_cast<uint64_t>(worker))),
      z_(shard_.example_indices.size()),
      ndt_(shard_.example_indices.size(),
           std::vector<double>(static_cast<size_t>(config.num_topics), 0.0)),
      delta_(CountDim(*corpus, config.num_topics), 0.0),
      weights_(static_cast<size_t>(config.num_topics), 0.0) {
  const int K = config_.num_topics;
  for (size_t di = 0; di < z_.size(); ++di) {
    const auto& words = corpus_->document(shard_.example_indices[di]);
    z_[di].resize(words.size());
    for (size_t i = 0; i < words.size(); ++i) {
      const int t = static_cast<int>(
          rng_.NextUint64(static_cast<uint64_t>(K)));
      z_[di][i] = t;
      ndt_[di][static_cast<size_t>(t)] += 1.0;
    }
  }
}

SparseVector LdaWorkload::AssignmentCounts() const {
  const int K = config_.num_topics;
  const int V = corpus_->vocab_size();
  std::vector<double> counts(CountDim(*corpus_, K), 0.0);
  for (size_t di = 0; di < z_.size(); ++di) {
    const auto& words = corpus_->document(shard_.example_indices[di]);
    for (size_t i = 0; i < words.size(); ++i) {
      const int t = z_[di][i];
      counts[static_cast<size_t>(t) * V + words[i]] += 1.0;
      counts[static_cast<size_t>(K) * V + t] += 1.0;
    }
  }
  return SparseVector::FromDense(counts, 0.0);
}

void LdaWorkload::RunClock(int /*clock*/, std::vector<double>* replica,
                           SparseVector* update) {
  std::vector<double>& counts = *replica;
  const int K = config_.num_topics;
  const int V = corpus_->vocab_size();
  const double alpha = config_.alpha;
  const double beta = config_.beta;
  std::fill(delta_.begin(), delta_.end(), 0.0);
  for (size_t di = 0; di < z_.size(); ++di) {
    const auto& words = corpus_->document(shard_.example_indices[di]);
    std::vector<double>& ndt = ndt_[di];
    for (size_t i = 0; i < words.size(); ++i) {
      const int w = words[i];
      const int old_t = z_[di][i];
      // Remove the token from local views.
      ndt[static_cast<size_t>(old_t)] -= 1.0;
      counts[static_cast<size_t>(old_t) * V + w] -= 1.0;
      counts[static_cast<size_t>(K) * V + old_t] -= 1.0;
      delta_[static_cast<size_t>(old_t) * V + w] -= 1.0;
      delta_[static_cast<size_t>(K) * V + old_t] -= 1.0;
      // Collapsed Gibbs: p(t) ∝ (ndt + α)(nwt + β)/(nt + Vβ). Stale
      // replica counts can be transiently negative; clamp at 0.
      double total = 0.0;
      for (int t = 0; t < K; ++t) {
        const double nwt =
            std::max(0.0, counts[static_cast<size_t>(t) * V + w]);
        const double nt =
            std::max(0.0, counts[static_cast<size_t>(K) * V + t]);
        weights_[static_cast<size_t>(t)] =
            (ndt[static_cast<size_t>(t)] + alpha) * (nwt + beta) /
            (nt + beta * V);
        total += weights_[static_cast<size_t>(t)];
      }
      double u = rng_.NextDouble() * total;
      int new_t = K - 1;
      for (int t = 0; t < K; ++t) {
        u -= weights_[static_cast<size_t>(t)];
        if (u <= 0.0) {
          new_t = t;
          break;
        }
      }
      z_[di][i] = new_t;
      ndt[static_cast<size_t>(new_t)] += 1.0;
      counts[static_cast<size_t>(new_t) * V + w] += 1.0;
      counts[static_cast<size_t>(K) * V + new_t] += 1.0;
      delta_[static_cast<size_t>(new_t) * V + w] += 1.0;
      delta_[static_cast<size_t>(K) * V + new_t] += 1.0;
    }
  }
  *update = SparseVector::FromDense(delta_, 0.0);
}

Result<LdaModel> TrainLda(const Corpus& corpus, const LdaConfig& config) {
  if (corpus.num_documents() == 0) {
    return Status::InvalidArgument("empty corpus");
  }
  if (config.num_topics <= 0) {
    return Status::InvalidArgument("num_topics must be positive");
  }
  if (config.alpha <= 0.0 || config.beta <= 0.0) {
    return Status::InvalidArgument("priors must be positive");
  }
  if (config.num_workers <= 0 || config.num_servers <= 0) {
    return Status::InvalidArgument("need positive worker/server counts");
  }
  SspRule rule;  // counts are additive: accumulate is the semantics
  PsOptions ps_opts;
  ps_opts.num_servers = config.num_servers;
  ps_opts.sync = config.sync;
  ParameterServer ps(
      static_cast<int64_t>(CountDim(corpus, config.num_topics)),
      config.num_workers, rule, ps_opts);

  // Clock 0: each worker's random topic assignment, pushed as its counts.
  const std::vector<DataShard> shards = SplitData(
      corpus.num_documents(), static_cast<size_t>(config.num_workers),
      ShardingPolicy::kContiguous);
  std::vector<std::unique_ptr<Workload>> workloads;
  for (int m = 0; m < config.num_workers; ++m) {
    auto workload = std::make_unique<LdaWorkload>(
        &corpus, shards[static_cast<size_t>(m)], config, m);
    ps.Push(m, /*clock=*/0, workload->AssignmentCounts());
    workloads.push_back(std::move(workload));
  }
  HETPS_RETURN_NOT_OK(RunModelWorkers(&ps, config.max_clocks, workloads));

  const int K = config.num_topics;
  const int V = corpus.vocab_size();
  LdaModel model;
  model.num_topics = K;
  model.vocab_size = V;
  const std::vector<double> w = ps.Snapshot();
  model.topic_word_counts.assign(
      w.begin(), w.begin() + static_cast<long>(K) * V);
  model.topic_totals.assign(w.begin() + static_cast<long>(K) * V,
                            w.end());
  return model;
}

}  // namespace hetps
