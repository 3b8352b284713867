// Version-aware pull path: partition content tags, delta encoding,
// client cache coherence, checkpoint-restore invalidation, and tag
// monotonicity under concurrent traffic (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/consolidation.h"
#include "core/dyn_sgd.h"
#include "net/ps_service.h"
#include "ps/checkpoint.h"
#include "ps/parameter_server.h"
#include "ps/worker_client.h"
#include "rule_cases.h"
#include "util/rng.h"

namespace hetps {
namespace {

PsOptions MultiPartOptions(SyncPolicy sync, int servers = 2,
                           int parts_per_server = 2) {
  PsOptions opts;
  opts.num_servers = servers;
  opts.partitions_per_server = parts_per_server;
  opts.scheme = PartitionScheme::kRange;
  opts.sync = sync;
  return opts;
}

bool BitwiseEqual(const std::vector<double>& a,
                  const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Every rule's cached replica must stay coherent with a cache-less full
// pull.
class PullCacheRuleTest : public testing::TestWithParam<RuleCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllRules, PullCacheRuleTest, testing::ValuesIn(kRuleCases),
    [](const testing::TestParamInfo<RuleCase>& info) {
      return info.param.name;
    });

std::vector<int64_t> TagsOf(const DeltaPullResult& r) {
  std::vector<int64_t> tags;
  for (const PartitionPull& p : r.partitions) tags.push_back(p.tag);
  return tags;
}

TEST(PullDeltaTest, ColdPullShipsEverythingWarmPullShipsNothing) {
  SspRule rule;
  ParameterServer ps(64, 1, rule, MultiPartOptions(SyncPolicy::Asp()));
  ps.Push(0, 0, SparseVector({1, 20, 40, 60}, {1.0, 2.0, 3.0, 4.0}));

  const std::vector<int64_t> cold(
      static_cast<size_t>(ps.num_partitions()), kNoCachedTag);
  const DeltaPullResult first = ps.PullDelta(0, cold);
  ASSERT_EQ(static_cast<int>(first.partitions.size()),
            ps.num_partitions());
  EXPECT_GT(first.bytes_shipped, 0);
  for (const PartitionPull& p : first.partitions) {
    EXPECT_NE(p.encoding, PartitionPull::Encoding::kUnchanged);
    EXPECT_NE(p.tag, kNoCachedTag);
  }

  // Nothing changed: a warm pull ships zero content bytes.
  const DeltaPullResult second = ps.PullDelta(0, TagsOf(first));
  EXPECT_EQ(second.bytes_shipped, 0);
  for (const PartitionPull& p : second.partitions) {
    EXPECT_EQ(p.encoding, PartitionPull::Encoding::kUnchanged);
  }
}

TEST(PullDeltaTest, OnlyDirtyPartitionsShip) {
  SspRule rule;
  ParameterServer ps(64, 1, rule, MultiPartOptions(SyncPolicy::Asp()));
  const std::vector<int64_t> cold(
      static_cast<size_t>(ps.num_partitions()), kNoCachedTag);
  // Seed every partition with content so the cache-less baseline
  // (bytes_full) has something real to ship per partition.
  ps.Push(0, 0, SparseVector({1, 20, 40, 60}, {1.0, 2.0, 3.0, 4.0}));
  const DeltaPullResult warmup = ps.PullDelta(0, cold);

  // Range partitioning: key 2 lands in partition 0 only.
  ps.Push(0, 1, SparseVector({2}, {5.0}));
  const DeltaPullResult after = ps.PullDelta(0, TagsOf(warmup));
  int changed = 0;
  for (const PartitionPull& p : after.partitions) {
    if (p.encoding != PartitionPull::Encoding::kUnchanged) ++changed;
  }
  EXPECT_EQ(changed, 1);
  EXPECT_NE(after.partitions[0].encoding,
            PartitionPull::Encoding::kUnchanged);
  EXPECT_GT(after.bytes_shipped, 0);
  EXPECT_LT(after.bytes_shipped, after.bytes_full);
}

TEST(PullDeltaTest, EmptyPiecePushDoesNotDirtyPartition) {
  // The per-piece push entry point (used by PsService and the event
  // simulator) must agree with the facade: for no-op-on-empty rules an
  // empty piece — common when the §5.3 update filter empties a
  // partition's slice — must not bump the partition's data_version, or
  // every clean partition looks dirty to the pull cache. The clock must
  // still advance when the empty piece was the update's last.
  SspRule rule;
  ParameterServer ps(64, 1, rule, MultiPartOptions(SyncPolicy::Asp()));
  ps.Push(0, 0, SparseVector({1, 20, 40, 60}, {1.0, 2.0, 3.0, 4.0}));
  const int64_t tag_before = ps.PartitionTag(0);
  const int cmin_before = ps.cmin();
  ps.PushPiece(0, 0, 1, SparseVector(), /*last_piece=*/true);
  EXPECT_EQ(ps.PartitionTag(0), tag_before);
  EXPECT_EQ(ps.cmin(), cmin_before + 1);  // clock still advanced
  // A non-empty piece does dirty it.
  ps.PushPiece(0, 0, 2, SparseVector({3}, {1.0}), /*last_piece=*/true);
  EXPECT_NE(ps.PartitionTag(0), tag_before);
}

TEST(PullDeltaTest, CachelessPullChargesWhatItShips) {
  // A pull that sends no tags ships every partition whole, so its
  // bytes_full baseline must equal what it shipped. Only worker 0 pushes,
  // so DynSGD's versions never complete: under deferred application the
  // read is the version summaries while the stored w stays zero, and a
  // baseline counted on w would read 0. Partition 3 is filled densely
  // and ships dense.
  for (const RuleCase& rc : kRuleCases) {
    SCOPED_TRACE(rc.name);
    const std::unique_ptr<ConsolidationRule> rule = rc.make();
    ParameterServer ps(64, 2, *rule, MultiPartOptions(SyncPolicy::Asp()));
    for (int c = 0; c < 3; ++c) {
      SparseVector update({1, 5, 20}, {0.5, -0.25, 1.0 + c});
      for (int64_t key = 48; key < 64; ++key) {
        update.PushBack(key, 0.125 * static_cast<double>(key - c));
      }
      ps.Push(0, c, update);
    }
    const DeltaPullResult pull = ps.PullDelta(1, {});
    EXPECT_EQ(pull.partitions[3].encoding, PartitionPull::Encoding::kDense);
    EXPECT_GT(pull.bytes_shipped, 0);
    EXPECT_EQ(pull.bytes_full, pull.bytes_shipped);
  }
}

TEST(PullDeltaTest, SmallUpdateShipsAsSparseDelta) {
  // A 3-key update against a 512-key partition must travel as a delta
  // (or sparse piece), far below the dense 512 * 8 bytes.
  SspRule rule;
  ParameterServer ps(1024, 1, rule,
                     MultiPartOptions(SyncPolicy::Asp(), 2, 1));
  const std::vector<int64_t> cold(
      static_cast<size_t>(ps.num_partitions()), kNoCachedTag);
  // Make the dense blocks non-trivial so dense wins the first ship.
  std::vector<int64_t> idx;
  std::vector<double> val;
  for (int64_t i = 0; i < 1024; i += 2) {
    idx.push_back(i);
    val.push_back(0.5);
  }
  ps.Push(0, 0, SparseVector(idx, val));
  const DeltaPullResult warmup = ps.PullDelta(0, cold);

  ps.Push(0, 1, SparseVector({3, 9, 11}, {1.0, 1.0, 1.0}));
  const DeltaPullResult after = ps.PullDelta(0, TagsOf(warmup));
  EXPECT_EQ(after.partitions[0].encoding,
            PartitionPull::Encoding::kSparseDelta);
  EXPECT_EQ(after.partitions[0].sparse.nnz(), 3u);
  EXPECT_LT(after.bytes_shipped, 512 * 8);
}

TEST_P(PullCacheRuleTest,
       WorkerClientReplicaMatchesFullPullUnderRandomTraffic) {
  // Bit-identical coherence: after any sequence of pushes, every client's
  // replica — cached and tag-less, in process and over the bus through
  // PsService, copied whole or refreshed in place — equals PullFull, the
  // server's dense reference, which materializes each shard without the
  // support gather. Random sparse updates, multiple partitions, many
  // rounds. Partitions 0-2 only ever see every third key, so their
  // support stays under half the block and whole-block ships are gathered
  // at the support; partition 3 sees every key and ships through the
  // materialized path. Some pushes undo an earlier one, leaving exact
  // zeros inside the support.
  const std::unique_ptr<ConsolidationRule> rule = GetParam().make();
  ParameterServer ps(400, 2, *rule, MultiPartOptions(SyncPolicy::Asp()));
  MessageBus bus;
  PsService service(&ps, &bus, "ps");
  ASSERT_TRUE(service.status().ok());
  WorkerClient cached(0, &ps, /*delta_pull=*/true);
  WorkerClient full(1, &ps, /*delta_pull=*/false);
  RpcWorkerClient rpc(0, &bus, "ps");
  RpcWorkerClient rpc_full(1, &bus, "ps", RpcRetryPolicy(),
                           /*push_window=*/0, /*delta_pull=*/false);
  // The refreshing clients keep their replicas between pulls and scribble
  // on them the way compute does, listing the keys: pushed keys, keys no
  // push ever touches (below 300 and not a multiple of 3), and keys of
  // partitions that ship kUnchanged to the second pull of a round.
  WorkerClient refreshed(0, &ps, /*delta_pull=*/true);
  RpcWorkerClient rpc_refreshed(0, &bus, "ps");
  std::vector<double> refreshed_replica;
  std::vector<double> rpc_refreshed_replica;
  std::vector<int64_t> written;
  std::vector<int64_t> rpc_written;
  Rng scribble_rng(654);
  auto scribble = [&scribble_rng](std::vector<double>* buffer,
                                  std::vector<int64_t>* keys) {
    keys->clear();
    for (int k = 0; k < 24; ++k) {
      const int64_t key = static_cast<int64_t>(scribble_rng.NextUint64(400));
      (*buffer)[static_cast<size_t>(key)] = scribble_rng.NextDouble();
      keys->push_back(key);
    }
  };
  ASSERT_TRUE(refreshed.PullCached(&refreshed_replica, nullptr, &written).ok());
  ASSERT_TRUE(
      rpc_refreshed.PullCached(&rpc_refreshed_replica, nullptr, &rpc_written)
          .ok());
  Rng rng(321);
  std::vector<double> replica;
  SparseVector last;
  for (int round = 0; round < 50; ++round) {
    const int pushes = 1 + static_cast<int>(rng.NextUint64(3));
    for (int k = 0; k < pushes; ++k) {
      SparseVector update;
      if (!last.empty() && rng.NextBernoulli(0.2)) {
        update = last;
        update.Scale(-1.0);
      } else {
        for (int64_t key = 0; key < 400; ++key) {
          if ((key >= 300 || key % 3 == 0) && rng.NextBernoulli(0.1)) {
            update.PushBack(key, rng.NextDouble() - 0.5);
          }
        }
      }
      ps.Push(0, round * 8 + k, update);
      last = update;
    }
    const std::vector<double> reference = ps.PullFull(0);
    cached.PullBlocking(0, &replica);
    ASSERT_TRUE(BitwiseEqual(replica, reference)) << "cached, " << round;
    full.PullBlocking(0, &replica);
    ASSERT_TRUE(BitwiseEqual(replica, reference)) << "tag-less, " << round;
    ASSERT_TRUE(rpc.PullCached(&replica, nullptr).ok());
    ASSERT_TRUE(BitwiseEqual(replica, reference)) << "rpc, " << round;
    ASSERT_TRUE(rpc_full.PullCached(&replica, nullptr).ok());
    ASSERT_TRUE(BitwiseEqual(replica, reference))
        << "rpc tag-less, " << round;
    for (int again = 0; again < 2; ++again) {
      scribble(&refreshed_replica, &written);
      ASSERT_TRUE(
          refreshed.PullCached(&refreshed_replica, nullptr, &written).ok());
      ASSERT_TRUE(BitwiseEqual(refreshed_replica, reference))
          << "refreshed, " << round << "." << again;
      scribble(&rpc_refreshed_replica, &rpc_written);
      ASSERT_TRUE(rpc_refreshed
                      .PullCached(&rpc_refreshed_replica, nullptr, &rpc_written)
                      .ok());
      ASSERT_TRUE(BitwiseEqual(rpc_refreshed_replica, reference))
          << "rpc refreshed, " << round << "." << again;
    }
  }
  ASSERT_LT(2 * ps.shard(0).support().size(), ps.shard(0).dim());
  ASSERT_GT(2 * ps.shard(3).support().size(), ps.shard(3).dim());
  // The cache paid off for rules with a delta log: it shipped less than
  // the full-pull cost.
  if (rule->PushTouchesOnlyUpdateSupport()) {
    EXPECT_LT(cached.pulled_bytes(), cached.pulled_bytes_full());
    EXPECT_LT(rpc.pulled_bytes(), rpc.pulled_bytes_full());
  }
  // A tag-less pull ships every partition whole, which is what the
  // server's cache-less baseline counts, and both clients receive the
  // same blocks.
  EXPECT_GT(full.pulled_bytes(), 0);
  EXPECT_EQ(full.pulled_bytes(), full.pulled_bytes_full());
  EXPECT_EQ(rpc_full.pulled_bytes(), full.pulled_bytes());
}

TEST(PullCacheTest, BothClientsRecordOneCacheApplySamplePerPull) {
  MetricsRegistry registry;
  SspRule rule;
  PsOptions opts = MultiPartOptions(SyncPolicy::Asp());
  opts.metrics = &registry;
  ParameterServer ps(32, 1, rule, opts);
  MessageBus bus;
  PsService service(&ps, &bus, "ps");
  ASSERT_TRUE(service.status().ok());
  WorkerClient client(0, &ps);
  RpcWorkerClient rpc(0, &bus, "ps");
  const HistogramMetric* in_process =
      registry.histogram("client.cache_apply_us");
  // The RPC client has no PS at hand and records process-wide.
  const HistogramMetric* over_bus =
      GlobalMetrics().histogram("client.cache_apply_us");
  const int64_t bus_before = over_bus->count();
  std::vector<double> replica;
  for (int c = 0; c < 3; ++c) {
    ps.Push(0, c, SparseVector({static_cast<int64_t>(c)}, {1.0}));
    client.PullBlocking(0, &replica);
    ASSERT_TRUE(rpc.PullCached(&replica, nullptr).ok());
  }
  EXPECT_EQ(in_process->count(), 3);
  EXPECT_EQ(over_bus->count() - bus_before, 3);
}

TEST(PullCacheTest, TrainerMutatingItsReplicaDoesNotPoisonTheCache) {
  // The trainer scribbles on the replica it was handed (local SGD).
  // The client's pristine cache must be unaffected: the next pull still
  // reconstructs the true server state.
  SspRule rule;
  ParameterServer ps(32, 1, rule, MultiPartOptions(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  ps.Push(0, 0, SparseVector({0, 16}, {1.0, 2.0}));
  std::vector<double> replica;
  client.PullBlocking(0, &replica);
  for (auto& v : replica) v = 99.0;  // trainer-side mutation
  ps.Push(0, 1, SparseVector({1}, {3.0}));
  client.PullBlocking(0, &replica);
  EXPECT_EQ(replica, ps.Snapshot());
}

TEST_P(PullCacheRuleTest, CheckpointRestoreInvalidatesClientTags) {
  // Restoring a checkpoint rewinds shard state; the pull epoch bump must
  // invalidate every cached tag, or a client whose tag happens to match
  // the restored data_version would keep stale content forever. With one
  // worker every rule applies each push in full, so the values below
  // hold for all of them.
  const std::unique_ptr<ConsolidationRule> rule = GetParam().make();
  ParameterServer ps(32, 1, *rule, MultiPartOptions(SyncPolicy::Asp()));
  WorkerClient client(0, &ps);
  WorkerClient uncached(0, &ps, /*delta_pull=*/false);
  ps.Push(0, 0, SparseVector({4}, {1.0}));
  std::vector<double> replica;
  std::vector<double> full;
  client.PullBlocking(0, &replica);  // warm cache at version 1

  const std::string path = testing::TempDir() + "/hetps_pull_cache_ckpt_" +
                           GetParam().name + ".txt";
  ASSERT_TRUE(SaveCheckpointToFile(ps, path).ok());

  // Diverge, then rewind. The restored shard has the same push count as
  // the checkpoint (data_version collides with a pre-restore tag).
  ps.Push(0, 1, SparseVector({4, 5}, {10.0, 20.0}));
  client.PullBlocking(0, &replica);
  ASSERT_DOUBLE_EQ(replica[4], 11.0);
  ASSERT_TRUE(RestoreCheckpointFromFile(&ps, path).ok());
  std::remove(path.c_str());

  client.PullBlocking(0, &replica);
  uncached.PullBlocking(0, &full);
  EXPECT_TRUE(BitwiseEqual(replica, full));
  EXPECT_DOUBLE_EQ(replica[4], 1.0);
  EXPECT_DOUBLE_EQ(replica[5], 0.0);
}

TEST(PullCacheTest, RestoredSummaryKeyAtZeroStillShips) {
  // DynSGD under ASP: worker 0 pushes +a at key k for clock 0 and -a for
  // clock 1 while worker 1 is still at clock 0. The parameter at k is
  // exactly 0, yet version 0's summary still holds +a. A restore must
  // keep k in the shard's support set: worker 1's clock-0 push revises
  // version 0 and writes -a/2 at k without touching k itself, and the
  // next cold pull (a sparse ship gathered at the support) must carry it.
  DynSgdRule rule;
  ParameterServer ps(64, 2, rule, MultiPartOptions(SyncPolicy::Asp(), 1, 1));
  constexpr int64_t k = 5;
  constexpr double a = 0.75;
  ps.Push(0, 0, SparseVector({k}, {a}));
  ps.Push(0, 1, SparseVector({k}, {-a}));
  ASSERT_EQ(ps.Snapshot()[k], 0.0);

  const std::string path =
      testing::TempDir() + "/hetps_pull_cache_summary_ckpt.txt";
  ASSERT_TRUE(SaveCheckpointToFile(ps, path).ok());
  ASSERT_TRUE(RestoreCheckpointFromFile(&ps, path).ok());
  std::remove(path.c_str());

  ps.Push(1, 0, SparseVector({40}, {1.0}));
  const DeltaPullResult cold = ps.PullDelta(1, {kNoCachedTag});
  ASSERT_EQ(cold.partitions[0].encoding, PartitionPull::Encoding::kSparse);
  EXPECT_EQ(cold.partitions[0].sparse, SparseVector({k, 40}, {-a / 2, 0.5}))
      << cold.partitions[0].sparse.DebugString();
  WorkerClient client(0, &ps);
  std::vector<double> replica;
  client.PullBlocking(0, &replica);
  EXPECT_TRUE(BitwiseEqual(replica, ps.Snapshot()));
}

TEST(PullCacheTest, ObservedPartitionVersionsNeverRegress) {
  // Monotonicity under concurrent pushes (ASP): across successive pulls
  // a worker must never observe a partition *older* than one it already
  // pulled. Live tags encode the shard's push count, so within one epoch
  // TagValue must be non-decreasing per partition. This is also the TSan
  // workout for pulls racing pushes on the shard mutexes.
  SspRule rule;
  ParameterServer ps(64, 3, rule, MultiPartOptions(SyncPolicy::Asp()));
  std::atomic<bool> stop{false};
  std::vector<std::thread> pushers;
  for (int w = 1; w <= 2; ++w) {
    pushers.emplace_back([&ps, &stop, w] {
      Rng rng(static_cast<uint64_t>(w) * 17);
      int clock = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<int64_t> idx;
        std::vector<double> val;
        for (int64_t key = static_cast<int64_t>(rng.NextUint64(8));
             key < 64; key += 8 + static_cast<int64_t>(rng.NextUint64(8))) {
          idx.push_back(key);
          val.push_back(1e-3);
        }
        ps.Push(w, clock++, SparseVector(idx, val));
      }
    });
  }
  WorkerClient client(0, &ps);
  std::vector<double> replica;
  std::vector<int64_t> prev(static_cast<size_t>(ps.num_partitions()),
                            -1);
  for (int pull = 0; pull < 200; ++pull) {
    client.PullBlocking(0, &replica);
    const std::vector<int64_t>& tags = client.cached_tags();
    ASSERT_EQ(static_cast<int>(tags.size()), ps.num_partitions());
    for (size_t p = 0; p < tags.size(); ++p) {
      ASSERT_FALSE(ParameterServer::TagIsVersioned(tags[p]));
      const int64_t v = ParameterServer::TagValue(tags[p]);
      EXPECT_GE(v, prev[p]) << "partition " << p << " regressed";
      prev[p] = v;
    }
  }
  stop.store(true);
  for (auto& t : pushers) t.join();
}

TEST(PullCacheTest, SspWorkerNeverObservesStateOlderThanAlreadyPulled) {
  // Same monotonicity property under SSP with real admission gating:
  // worker 0 pulls between clocks while worker 1 races ahead within the
  // staleness window.
  SspRule rule;
  ParameterServer ps(64, 2, rule,
                     MultiPartOptions(SyncPolicy::Ssp(3)));
  std::thread peer([&ps] {
    for (int c = 0; c < 40; ++c) {
      ps.Push(1, c, SparseVector({static_cast<int64_t>(c % 64)}, {1.0}));
      ps.WaitUntilCanAdvance(1, c + 1);
    }
  });
  WorkerClient client(0, &ps);
  std::vector<double> replica;
  std::vector<int64_t> prev(static_cast<size_t>(ps.num_partitions()),
                            -1);
  for (int c = 0; c < 40; ++c) {
    ps.Push(0, c, SparseVector({1}, {1e-3}));
    ps.WaitUntilCanAdvance(0, c + 1);
    client.PullBlocking(c + 1, &replica);
    const std::vector<int64_t>& tags = client.cached_tags();
    for (size_t p = 0; p < tags.size(); ++p) {
      const int64_t v = ParameterServer::TagValue(tags[p]);
      EXPECT_GE(v, prev[p]);
      prev[p] = v;
    }
  }
  peer.join();
}

}  // namespace
}  // namespace hetps
