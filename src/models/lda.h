#ifndef HETPS_MODELS_LDA_H_
#define HETPS_MODELS_LDA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/sync_policy.h"
#include "data/sharding.h"
#include "engine/workload.h"
#include "util/rng.h"
#include "util/status.h"

namespace hetps {

/// A tokenized corpus for topic modelling: documents are bags of word
/// ids in [0, vocab_size).
class Corpus {
 public:
  Corpus() = default;

  void AddDocument(std::vector<int> word_ids);

  size_t num_documents() const { return documents_.size(); }
  int vocab_size() const { return vocab_size_; }
  const std::vector<int>& document(size_t d) const {
    return documents_[d];
  }
  size_t total_tokens() const { return total_tokens_; }

 private:
  std::vector<std::vector<int>> documents_;
  int vocab_size_ = 0;
  size_t total_tokens_ = 0;
};

/// Synthetic corpus with planted topics: each topic owns a disjoint slice
/// of the vocabulary; each document mixes 1-2 topics. Deterministic.
struct SyntheticCorpusConfig {
  int num_topics = 4;
  int words_per_topic = 30;
  int num_documents = 120;
  int tokens_per_document = 60;
  double intruder_fraction = 0.1;  // off-topic noise tokens
  uint64_t seed = 31;
};
Corpus GenerateSyntheticCorpus(const SyntheticCorpusConfig& config);

/// Distributed LDA on the parameter server — the last of the prototype's
/// "ready-to-run algorithms" (Appendix D: LR, SVM, KMeans, LDA) and the
/// workload the original PS papers (ParallelLDA / YahooLDA [39]) were
/// built for. The shared parameter is the word-topic count matrix plus
/// the per-topic totals; workers run collapsed Gibbs sampling on their
/// document shards and push count *deltas*, which the PS accumulates.
/// Counts are additive, so the SSPSGD accumulate rule is the right
/// consolidation here, and the trainer always uses it (the
/// heterogeneity-aware rules target SGD updates, so LdaConfig has no rule
/// to choose).
struct LdaConfig {
  int num_topics = 4;
  double alpha = 0.5;   // document-topic prior
  double beta = 0.1;    // topic-word prior
  int num_workers = 2;
  int num_servers = 1;
  int max_clocks = 20;  // Gibbs sweeps
  SyncPolicy sync = SyncPolicy::Ssp(2);
  uint64_t seed = 17;
};

struct LdaModel {
  int num_topics = 0;
  int vocab_size = 0;
  /// Row-major topic-word counts (num_topics x vocab_size).
  std::vector<double> topic_word_counts;
  std::vector<double> topic_totals;

  /// P(word | topic) with the beta prior folded in.
  double WordProbability(int topic, int word, double beta) const;

  /// The most probable words of a topic (descending).
  std::vector<int> TopWords(int topic, int k) const;
};

/// One worker's Gibbs sweep over its documents: resamples every token's
/// topic against the replica's counts, moving the token's counts in the
/// replica at once and summing the moves into the clock's update. Names
/// no written keys. Parameter layout: K×V word-topic counts, then the K
/// topic totals.
class LdaWorkload final : public Workload {
 public:
  /// Draws each token's initial topic from worker `worker`'s stream,
  /// Rng(config.seed).Fork(worker).
  LdaWorkload(const Corpus* corpus, DataShard shard, const LdaConfig& config,
              int worker);

  /// The counts of the current topic assignments: the worker's clock-0
  /// push.
  SparseVector AssignmentCounts() const;

  void RunClock(int clock, std::vector<double>* replica,
                SparseVector* update) override;

 private:
  const Corpus* corpus_;
  DataShard shard_;
  LdaConfig config_;
  Rng rng_;
  /// Per document of the shard: each token's topic, and the topic counts.
  std::vector<std::vector<int>> z_;
  std::vector<std::vector<double>> ndt_;
  std::vector<double> delta_;    // dense, zeroed at each clock's start
  std::vector<double> weights_;  // per-topic sampling weights
};

/// Pushes every worker's AssignmentCounts as its clock 0, then trains one
/// LdaWorkload per worker on TrainThreaded's start-up (RunModelWorkers).
Result<LdaModel> TrainLda(const Corpus& corpus, const LdaConfig& config);

}  // namespace hetps

#endif  // HETPS_MODELS_LDA_H_
