#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/consolidation.h"
#include "core/sync_policy.h"
#include "data/sharding.h"
#include "models/kmeans.h"
#include "models/lda.h"
#include "models/matrix_factorization.h"
#include "ps/parameter_server.h"
#include "util/rng.h"

namespace hetps {
namespace {

struct ModelCase {
  std::string model;  // "mf" | "kmeans" | "lda"
  std::string rule;   // "ssp" | "con" | "dyn" ("ssp" for LDA)
  Protocol protocol;
};

void PrintTo(const ModelCase& c, std::ostream* os) {
  *os << c.model << "/" << c.rule << "/" << ProtocolName(c.protocol);
}

SyncPolicy MakeSync(Protocol protocol) {
  switch (protocol) {
    case Protocol::kBsp:
      return SyncPolicy::Bsp();
    case Protocol::kAsp:
      return SyncPolicy::Asp();
    case Protocol::kSsp:
      break;
  }
  return SyncPolicy::Ssp(2);
}

bool BitwiseEqual(const std::vector<double>& a,
                  const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

DataShard AllExamples(size_t n) {
  return SplitData(n, 1, ShardingPolicy::kContiguous)[0];
}

PsOptions OneWorkerPs(int num_servers, const SyncPolicy& sync) {
  PsOptions options;
  options.num_servers = num_servers;
  options.sync = sync;
  return options;
}

/// Algorithm 1 written out by hand for worker 0 of a one-worker PS whose
/// clock 0 the caller has pushed: pull, then per clock the step and a
/// push, re-reading the whole model with the dense reference pull
/// whenever the cached cmin forces a pull. Returns the final parameter.
std::vector<double> RunByHand(ParameterServer* ps, Workload* workload,
                              int max_clocks) {
  const SyncPolicy sync = ps->options().sync;
  int cp = 0;
  std::vector<double> replica = ps->PullFull(0, &cp);
  for (int c = 1; c <= max_clocks; ++c) {
    const bool pull = sync.NeedsPull(c, cp);
    SparseVector update;
    workload->RunClock(c, &replica, &update);
    ps->Push(0, c, update);
    if (pull) {
      EXPECT_TRUE(ps->WaitUntilCanAdvance(0, c + 1));
      replica = ps->PullFull(0, &cp);
    }
  }
  return ps->Snapshot();
}

struct Outcome {
  std::vector<double> trained;
  std::vector<double> by_hand;
};

Outcome MatrixFactorization(const ModelCase& c) {
  SyntheticRatingsConfig data;
  data.num_users = 30;
  data.num_items = 20;
  data.true_rank = 2;
  data.num_ratings = 400;
  const RatingsDataset d = GenerateSyntheticRatings(data);
  MatrixFactorizationConfig cfg;
  cfg.rank = 3;
  cfg.num_workers = 1;
  cfg.max_clocks = 6;
  cfg.rule = c.rule;
  cfg.sync = MakeSync(c.protocol);

  Outcome out;
  const Result<MatrixFactorizationModel> model =
      TrainMatrixFactorization(d, cfg);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  if (!model.ok()) return out;
  out.trained = model.value().user_factors;
  out.trained.insert(out.trained.end(), model.value().item_factors.begin(),
                     model.value().item_factors.end());

  const std::unique_ptr<ConsolidationRule> rule =
      MakeConsolidationRule(c.rule);
  ParameterServer ps((d.num_users() + d.num_items()) * cfg.rank, 1, *rule,
                     OneWorkerPs(cfg.num_servers, cfg.sync));
  ps.Push(0, 0, InitialFactors(d, cfg));
  MatrixFactorizationWorkload workload(&d, AllExamples(d.size()), cfg);
  out.by_hand = RunByHand(&ps, &workload, cfg.max_clocks);
  return out;
}

Outcome KMeans(const ModelCase& c) {
  Dataset d;
  Rng rng(12);
  for (int cluster = 0; cluster < 3; ++cluster) {
    for (int i = 0; i < 40; ++i) {
      Example ex;
      for (int j = 0; j < 2; ++j) {
        ex.features.PushBack(2 * cluster + j,
                             5.0 + rng.NextGaussian(0.0, 0.2));
      }
      d.Add(std::move(ex));
    }
  }
  Rng shuffle(3);
  d.Shuffle(&shuffle);
  KMeansConfig cfg;
  cfg.k = 3;
  cfg.num_workers = 1;
  cfg.max_clocks = 6;
  cfg.rule = c.rule;
  cfg.sync = MakeSync(c.protocol);

  Outcome out;
  const Result<KMeansModel> model = TrainKMeans(d, cfg);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  if (!model.ok()) return out;
  out.trained = model.value().centroids;

  const std::unique_ptr<ConsolidationRule> rule =
      MakeConsolidationRule(c.rule);
  ParameterServer ps(cfg.k * d.dimension(), 1, *rule,
                     OneWorkerPs(cfg.num_servers, cfg.sync));
  ps.Push(0, 0, InitialCentroids(d, cfg));
  KMeansWorkload workload(&d, AllExamples(d.size()), cfg);
  out.by_hand = RunByHand(&ps, &workload, cfg.max_clocks);
  return out;
}

Outcome Lda(const ModelCase& c) {
  SyntheticCorpusConfig data;
  data.num_topics = 3;
  data.words_per_topic = 10;
  data.num_documents = 30;
  data.tokens_per_document = 20;
  const Corpus corpus = GenerateSyntheticCorpus(data);
  LdaConfig cfg;
  cfg.num_topics = 3;
  cfg.num_workers = 1;
  cfg.max_clocks = 6;
  cfg.sync = MakeSync(c.protocol);

  Outcome out;
  const Result<LdaModel> model = TrainLda(corpus, cfg);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  if (!model.ok()) return out;
  out.trained = model.value().topic_word_counts;
  out.trained.insert(out.trained.end(), model.value().topic_totals.begin(),
                     model.value().topic_totals.end());

  SspRule rule;
  ParameterServer ps(cfg.num_topics * (corpus.vocab_size() + 1), 1, rule,
                     OneWorkerPs(cfg.num_servers, cfg.sync));
  LdaWorkload workload(&corpus, AllExamples(corpus.num_documents()), cfg,
                       /*worker=*/0);
  ps.Push(0, 0, workload.AssignmentCounts());
  out.by_hand = RunByHand(&ps, &workload, cfg.max_clocks);
  return out;
}

class ModelLoopTest : public testing::TestWithParam<ModelCase> {};

TEST_P(ModelLoopTest, SingleWorkerMatchesHandWrittenLoop) {
  // With one worker nothing is left to schedule, so each model's trainer
  // (client, replica cache, the shared worker loop) must equal its
  // Workload driven by hand against a bare PS.
  const ModelCase& c = GetParam();
  const Outcome out = c.model == "mf"       ? MatrixFactorization(c)
                      : c.model == "kmeans" ? KMeans(c)
                                            : Lda(c);
  ASSERT_FALSE(out.trained.empty());
  EXPECT_TRUE(BitwiseEqual(out.trained, out.by_hand));
}

std::vector<ModelCase> AllCases() {
  const Protocol protocols[] = {Protocol::kBsp, Protocol::kSsp,
                                Protocol::kAsp};
  std::vector<ModelCase> cases;
  for (const char* model : {"mf", "kmeans"}) {
    for (const char* rule : {"ssp", "con", "dyn"}) {
      for (Protocol p : protocols) cases.push_back({model, rule, p});
    }
  }
  for (Protocol p : protocols) cases.push_back({"lda", "ssp", p});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ModelsRulesProtocols, ModelLoopTest, testing::ValuesIn(AllCases()),
    [](const testing::TestParamInfo<ModelCase>& info) {
      const ModelCase& c = info.param;
      return c.model + (c.model == "lda" ? "" : "_" + c.rule) + "_" +
             ProtocolName(c.protocol);
    });

}  // namespace
}  // namespace hetps
