#include "ps/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/dyn_sgd.h"
#include "util/rng.h"

namespace hetps {
namespace {

PsOptions Options() {
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.sync = SyncPolicy::Ssp(2);
  return opts;
}

// Drives some realistic traffic through the PS.
void PushTraffic(ParameterServer* ps, int clocks) {
  Rng rng(4);
  for (int c = 0; c < clocks; ++c) {
    for (int m = 0; m < ps->num_workers(); ++m) {
      SparseVector u;
      for (int64_t j = 0; j < ps->dim(); ++j) {
        if (rng.NextBernoulli(0.3)) u.PushBack(j, rng.NextGaussian());
      }
      ps->Push(m, c, u);
      if (c % 2 == 1) ps->PullFull(m);
    }
  }
}

TEST(CheckpointTest, RoundTripRestoresDynSgdStateExactly) {
  DynSgdRule rule;
  ParameterServer ps(24, 3, rule, Options());
  PushTraffic(&ps, 5);
  const std::vector<double> before = ps.Snapshot();

  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());

  // A freshly constructed server restores to identical state.
  ParameterServer restored(24, 3, rule, Options());
  ASSERT_TRUE(restored.LoadCheckpoint(buffer).ok());
  EXPECT_EQ(restored.Snapshot(), before);
  EXPECT_EQ(restored.cmin(), ps.cmin());
  EXPECT_EQ(restored.cmax(), ps.cmax());
  EXPECT_EQ(restored.StableVersion(), ps.StableVersion());
  EXPECT_EQ(restored.TotalPushes(), ps.TotalPushes());
  EXPECT_EQ(restored.AuxMemoryBytes(), ps.AuxMemoryBytes());
}

TEST(CheckpointTest, TrainingContinuesIdenticallyAfterRestore) {
  DynSgdRule rule;
  ParameterServer original(16, 2, rule, Options());
  PushTraffic(&original, 4);

  std::stringstream buffer;
  ASSERT_TRUE(original.SaveCheckpoint(buffer).ok());
  ParameterServer restored(16, 2, rule, Options());
  ASSERT_TRUE(restored.LoadCheckpoint(buffer).ok());

  // Apply the same subsequent pushes to both; states must stay equal —
  // including DynSGD's version revision behaviour.
  for (int c = 4; c < 7; ++c) {
    for (int m = 0; m < 2; ++m) {
      SparseVector u({static_cast<int64_t>(m), 10},
                     {1.0 + c, 0.5 * (m + 1)});
      original.Push(m, c, u);
      restored.Push(m, c, u);
    }
  }
  EXPECT_EQ(original.Snapshot(), restored.Snapshot());
  EXPECT_EQ(original.cmin(), restored.cmin());
}

TEST(CheckpointTest, WorksForStatelessRules) {
  SspRule rule;
  ParameterServer ps(8, 2, rule, Options());
  ps.Push(0, 0, SparseVector({1, 5}, {2.0, -1.0}));
  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());
  ParameterServer restored(8, 2, rule, Options());
  ASSERT_TRUE(restored.LoadCheckpoint(buffer).ok());
  EXPECT_EQ(restored.Snapshot(), ps.Snapshot());
}

TEST(CheckpointTest, RejectsShapeMismatch) {
  DynSgdRule rule;
  ParameterServer ps(8, 2, rule, Options());
  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());
  ParameterServer wrong_dim(16, 2, rule, Options());
  EXPECT_TRUE(
      wrong_dim.LoadCheckpoint(buffer).IsInvalidArgument());
  std::stringstream buffer2;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer2).ok());
  ParameterServer wrong_workers(8, 3, rule, Options());
  EXPECT_TRUE(
      wrong_workers.LoadCheckpoint(buffer2).IsInvalidArgument());
}

TEST(CheckpointTest, RejectsGarbage) {
  DynSgdRule rule;
  ParameterServer ps(8, 2, rule, Options());
  std::stringstream buffer("not a checkpoint\n");
  EXPECT_FALSE(ps.LoadCheckpoint(buffer).ok());
  std::stringstream truncated("hetps-checkpoint v2\n8 2");
  EXPECT_FALSE(ps.LoadCheckpoint(truncated).ok());
}

/// A live server's observable state, to check a refused restore left it
/// as it was.
struct ServerState {
  std::vector<double> snapshot;
  int cmin = 0;
  int cmax = 0;
  int64_t pushes = 0;
  int64_t stable = 0;

  static ServerState Of(const ParameterServer& ps) {
    return {ps.Snapshot(), ps.cmin(), ps.cmax(), ps.TotalPushes(),
            ps.StableVersion()};
  }
  bool operator==(const ServerState& o) const {
    return snapshot == o.snapshot && cmin == o.cmin && cmax == o.cmax &&
           pushes == o.pushes && stable == o.stable;
  }
};

PsOptions LayoutOptions(PartitionScheme scheme, std::vector<int64_t> cuts) {
  PsOptions opts = Options();
  opts.scheme = scheme;
  opts.range_cuts = std::move(cuts);
  return opts;
}

TEST(CheckpointTest, RefusesAnotherPartitionScheme) {
  // Same dim, workers and partition count, but hash striping puts keys 6
  // and 13 where the range layout keeps keys 9 and 7: a restore across
  // the two would move values between keys.
  SspRule rule;
  ParameterServer range(16, 2, rule,
                        LayoutOptions(PartitionScheme::kRange, {}));
  PushTraffic(&range, 3);
  std::stringstream buffer;
  ASSERT_TRUE(range.SaveCheckpoint(buffer).ok());
  ParameterServer hash(16, 2, rule, LayoutOptions(PartitionScheme::kHash, {}));
  ASSERT_EQ(hash.num_partitions(), range.num_partitions());
  PushTraffic(&hash, 1);
  const ServerState before = ServerState::Of(hash);
  const Status st = hash.LoadCheckpoint(buffer);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("scheme"), std::string::npos) << st.ToString();
  EXPECT_TRUE(ServerState::Of(hash) == before);
}

TEST(CheckpointTest, RefusesOtherRangeCuts) {
  DynSgdRule rule;
  const PsOptions saved_layout =
      LayoutOptions(PartitionScheme::kRangeHash, {0, 2, 4, 9, 16});
  ParameterServer source(16, 2, rule, saved_layout);
  PushTraffic(&source, 3);
  std::stringstream buffer;
  ASSERT_TRUE(source.SaveCheckpoint(buffer).ok());
  const std::string full = buffer.str();
  for (const std::vector<int64_t>& cuts :
       {std::vector<int64_t>{}, std::vector<int64_t>{0, 2, 4, 10, 16}}) {
    ParameterServer target(16, 2, rule,
                           LayoutOptions(PartitionScheme::kRangeHash, cuts));
    PushTraffic(&target, 2);
    const ServerState before = ServerState::Of(target);
    std::stringstream in(full);
    const Status st = target.LoadCheckpoint(in);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("cuts"), std::string::npos) << st.ToString();
    EXPECT_TRUE(ServerState::Of(target) == before);
  }
}

TEST(CheckpointTest, RoundTripsACutLayoutBitForBit) {
  DynSgdRule rule;
  const PsOptions layout =
      LayoutOptions(PartitionScheme::kRange, {0, 1, 3, 7, 24});
  ParameterServer source(24, 3, rule, layout);
  PushTraffic(&source, 5);
  std::stringstream buffer;
  ASSERT_TRUE(source.SaveCheckpoint(buffer).ok());
  const std::string first = buffer.str();
  EXPECT_NE(first.find("\nlayout range 0 1 3 7 24\n"), std::string::npos);

  ParameterServer restored(24, 3, rule, layout);
  ASSERT_TRUE(restored.LoadCheckpoint(buffer).ok());
  const std::vector<double> a = source.Snapshot();
  const std::vector<double> b = restored.Snapshot();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  for (int p = 0; p < source.num_partitions(); ++p) {
    EXPECT_EQ(restored.shard(p).push_count(), source.shard(p).push_count());
  }
  std::stringstream again;
  ASSERT_TRUE(restored.SaveCheckpoint(again).ok());
  EXPECT_EQ(again.str(), first);
}

TEST(CheckpointTest, RefusesVersionOneFiles) {
  SspRule rule;
  ParameterServer ps(8, 2, rule, Options());
  ps.Push(0, 0, SparseVector({1, 5}, {2.0, -1.0}));
  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());
  std::string text = buffer.str();
  ASSERT_EQ(text.rfind("hetps-checkpoint v2\n", 0), 0u);
  text.replace(0, std::string("hetps-checkpoint v2").size(),
               "hetps-checkpoint v1");
  ParameterServer target(8, 2, rule, Options());
  const ServerState before = ServerState::Of(target);
  std::stringstream v1(text);
  const Status st = target.LoadCheckpoint(v1);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("v1"), std::string::npos) << st.ToString();
  EXPECT_TRUE(ServerState::Of(target) == before);
}

TEST(CheckpointTest, FailedRestoreLeavesServerUntouched) {
  // LoadCheckpoint is transactional: any decode failure must leave the
  // live server exactly as it was — a truncated file can never
  // half-restore. Truncate a valid checkpoint at every prefix length
  // that still fails to parse and verify state is bit-identical.
  DynSgdRule rule;
  ParameterServer source(16, 2, rule, Options());
  PushTraffic(&source, 4);
  std::stringstream buffer;
  ASSERT_TRUE(source.SaveCheckpoint(buffer).ok());
  const std::string full = buffer.str();

  ParameterServer target(16, 2, rule, Options());
  PushTraffic(&target, 2);  // distinct, nontrivial live state
  const std::vector<double> before = target.Snapshot();
  const int cmin_before = target.cmin();
  const int cmax_before = target.cmax();
  const int64_t pushes_before = target.TotalPushes();
  const int64_t stable_before = target.StableVersion();

  // A handful of truncation points spread across the file, including
  // mid-shard ones.
  for (size_t frac = 1; frac <= 9; ++frac) {
    const size_t len = full.size() * frac / 10;
    std::stringstream truncated(full.substr(0, len));
    const Status s = target.LoadCheckpoint(truncated);
    ASSERT_FALSE(s.ok()) << "prefix of " << len << " bytes parsed?";
    EXPECT_EQ(target.Snapshot(), before) << "len=" << len;
    EXPECT_EQ(target.cmin(), cmin_before);
    EXPECT_EQ(target.cmax(), cmax_before);
    EXPECT_EQ(target.TotalPushes(), pushes_before);
    EXPECT_EQ(target.StableVersion(), stable_before);
  }

  // After all the failed attempts, a good checkpoint still restores.
  std::stringstream good(full);
  ASSERT_TRUE(target.LoadCheckpoint(good).ok());
  EXPECT_EQ(target.Snapshot(), source.Snapshot());
}

TEST(CheckpointTest, FileRoundTrip) {
  DynSgdRule rule;
  ParameterServer ps(12, 2, rule, Options());
  PushTraffic(&ps, 3);
  const std::string path = testing::TempDir() + "/hetps_ckpt_test.txt";
  ASSERT_TRUE(SaveCheckpointToFile(ps, path).ok());
  ParameterServer restored(12, 2, rule, Options());
  ASSERT_TRUE(RestoreCheckpointFromFile(&restored, path).ok());
  EXPECT_EQ(restored.Snapshot(), ps.Snapshot());
  std::remove(path.c_str());
  EXPECT_FALSE(RestoreCheckpointFromFile(&restored, path).ok());
}

TEST(CheckpointTest, PreservesSparseLayout) {
  DynSgdRule rule;
  PsOptions opts = Options();
  ParameterServer ps(1000, 2, rule, opts);
  ps.Push(0, 0, SparseVector({5}, {1.0}));
  // Force one block sparse by compacting via checkpoint restore.
  std::stringstream buffer;
  ASSERT_TRUE(ps.SaveCheckpoint(buffer).ok());
  ParameterServer restored(1000, 2, rule, opts);
  ASSERT_TRUE(restored.LoadCheckpoint(buffer).ok());
  for (int p = 0; p < restored.num_partitions(); ++p) {
    EXPECT_EQ(restored.shard(p).param().is_sparse(),
              ps.shard(p).param().is_sparse());
  }
}

}  // namespace
}  // namespace hetps
