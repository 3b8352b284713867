#include "net/ps_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/consolidation.h"
#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "core/sgd_compute.h"
#include "data/synthetic.h"
#include "ps/checkpoint.h"
#include "ps/shard_plane.h"
#include "util/rng.h"

namespace hetps {
namespace {

constexpr std::chrono::microseconds kForever{0};

struct RpcHarness {
  explicit RpcHarness(int workers, int64_t dim,
                      SyncPolicy sync = SyncPolicy::Asp())
      : rule(),
        ps(dim, workers, rule,
           [&] {
             PsOptions o;
             o.num_servers = 2;
             o.sync = sync;
             return o;
           }()),
        service(&ps, &bus, "ps") {
    EXPECT_TRUE(service.status().ok());
  }

  DynSgdRule rule;
  MessageBus bus;
  ParameterServer ps;
  PsService service;
};

TEST(PsServiceTest, PushAndPullOverTheWire) {
  RpcHarness h(2, 8);
  RpcWorkerClient client(0, &h.bus, "ps");
  ASSERT_TRUE(client.Push(0, SparseVector({1, 5}, {2.0, -1.0})).ok());
  std::vector<double> replica;
  int cmin = -1;
  ASSERT_TRUE(client.PullCached(&replica, &cmin).ok());
  ASSERT_EQ(replica.size(), 8u);
  EXPECT_DOUBLE_EQ(replica[1], 2.0);
  EXPECT_DOUBLE_EQ(replica[5], -1.0);
  EXPECT_EQ(cmin, 0);  // worker 1 has not pushed
}

TEST(PsServiceTest, CanAdvanceOverTheWire) {
  RpcHarness h(2, 4, SyncPolicy::Ssp(1));
  RpcWorkerClient client(0, &h.bus, "ps");
  auto admitted = client.CanAdvance(1);
  ASSERT_TRUE(admitted.ok());
  EXPECT_TRUE(admitted.value());
  admitted = client.CanAdvance(2);
  ASSERT_TRUE(admitted.ok());
  EXPECT_FALSE(admitted.value());
}

TEST(PsServiceTest, ServerRejectsMalformedRequests) {
  RpcHarness h(1, 4);
  // Unknown opcodes, among them every unassigned byte below kPush, each
  // followed by a worker id as a pull request would be.
  for (const uint8_t op : {1, 2, 3, 5, 9, 250}) {
    ByteWriter w;
    w.WriteU8(op);
    w.WriteI64(0);
    BusReply reply = h.bus.BlockingCall("c", "ps", w.TakeBuffer(), kForever);
    ASSERT_TRUE(reply.ok());
    ByteReader r(reply.payload);
    uint8_t code = 0;
    std::string message;
    ASSERT_TRUE(r.ReadU8(&code).ok());
    EXPECT_EQ(code, static_cast<uint8_t>(StatusCode::kInvalidArgument))
        << int{op};
    ASSERT_TRUE(r.ReadString(&message).ok());
    EXPECT_EQ(message, "unknown opcode " + std::to_string(op));
  }
  // Truncated push.
  {
    ByteWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kPush));
    w.WriteI64(0);
    BusReply reply = h.bus.BlockingCall("c", "ps", w.TakeBuffer(), kForever);
    ASSERT_TRUE(reply.ok());
    ByteReader r(reply.payload);
    uint8_t code = 0;
    ASSERT_TRUE(r.ReadU8(&code).ok());
    EXPECT_NE(code, 0);
  }
  // Worker id out of range.
  {
    RpcWorkerClient bad(7, &h.bus, "ps");
    EXPECT_TRUE(bad.Push(0, SparseVector()).IsInvalidArgument());
  }
  // Update index beyond dim.
  {
    RpcWorkerClient client(0, &h.bus, "ps");
    EXPECT_TRUE(client.Push(0, SparseVector({9}, {1.0}))
                    .IsInvalidArgument());
  }
  // Update index beyond dim, through the push window after a pull.
  {
    RpcWorkerClient client(0, &h.bus, "ps", RpcRetryPolicy(),
                           /*push_window=*/1);
    std::vector<double> replica;
    ASSERT_TRUE(client.PullCached(&replica, nullptr).ok());
    EXPECT_TRUE(client.Push(0, SparseVector({9}, {1.0}))
                    .IsInvalidArgument());
    EXPECT_TRUE(client.Flush().ok());
  }
  // Admission probes with worker ids outside the one-worker PS.
  for (const int id : {1, -1, 200000000}) {
    RpcWorkerClient bad(id, &h.bus, "ps");
    EXPECT_TRUE(bad.CanAdvance(1).status().IsInvalidArgument()) << id;
  }
  // The server survives all of it.
  RpcWorkerClient client(0, &h.bus, "ps");
  EXPECT_TRUE(client.Push(0, SparseVector({1}, {1.0})).ok());
}

TEST(PsServiceTest, OpcodeNamesMapBothWays) {
  const std::vector<std::pair<PsOpCode, std::string>> expected = {
      {PsOpCode::kCanAdvance, "can_advance"},
      {PsOpCode::kPullDelta, "pull_delta"},
      {PsOpCode::kLayout, "layout"},
      {PsOpCode::kReportClock, "report_clock"},
      {PsOpCode::kPush, "push"},
      {PsOpCode::kStatus, "status"},
      {PsOpCode::kMetricsScrape, "metrics_scrape"},
      {PsOpCode::kObsControl, "obs_control"},
  };
  for (const auto& [op, name] : expected) {
    EXPECT_EQ(PsOpCodeName(static_cast<uint8_t>(op)), name);
    const std::optional<PsOpCode> back = PsOpCodeFromName(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, op) << name;
  }
  // No other byte has a name.
  int named = 0;
  for (int byte = 0; byte < 256; ++byte) {
    if (std::string(PsOpCodeName(static_cast<uint8_t>(byte))) != "unknown") {
      ++named;
    }
  }
  EXPECT_EQ(named, static_cast<int>(expected.size()));
  EXPECT_STREQ(PsOpCodeName(1), "unknown");
  for (const char* bad :
       {"push_columnar", "readmit", "unknown", "all", "", "PUSH"}) {
    EXPECT_FALSE(PsOpCodeFromName(bad).has_value()) << bad;
  }
}

TEST(PsServiceTest, ServiceMetricsCountRequests) {
  // Every dispatched request is one rpc.handle_us{op=<name>} sample.
  HistogramMetric* pushes =
      GlobalMetrics().histogram("rpc.handle_us", {{"op", "push"}});
  HistogramMetric* pulls =
      GlobalMetrics().histogram("rpc.handle_us", {{"op", "pull_delta"}});
  Counter* errors = GlobalMetrics().counter("rpc.errors");
  const int64_t pushes_before = pushes->count();
  const int64_t pulls_before = pulls->count();
  const int64_t errors_before = errors->value();
  RpcHarness h(1, 8);
  RpcWorkerClient client(0, &h.bus, "ps");
  ASSERT_TRUE(client.Push(0, SparseVector({1}, {1.0})).ok());
  std::vector<double> replica;
  ASSERT_TRUE(client.PullCached(&replica, nullptr).ok());
  RpcWorkerClient bad(7, &h.bus, "ps");
  EXPECT_TRUE(bad.Push(0, SparseVector({1}, {1.0}))
                  .IsInvalidArgument());  // worker out of range -> error
  h.bus.Flush();
  EXPECT_EQ(pushes->count() - pushes_before, 2);
  EXPECT_EQ(pulls->count() - pulls_before, 1);
  EXPECT_EQ(errors->value() - errors_before, 1);
}

TEST(PsServiceTest, RetriesRecoverFromLostRequests) {
  // A lossy bus drops ~30% of requests; the client's timeout+backoff
  // retry loop must still complete every operation.
  RpcHarness h(1, 8);
  FaultPlan plan;
  plan.drop_request_prob = 0.3;
  plan.seed = 11;
  h.bus.SetFaultPlan(plan);

  RpcRetryPolicy retry;
  retry.timeout = std::chrono::milliseconds(10);
  retry.max_attempts = 30;
  retry.initial_backoff = std::chrono::microseconds(100);
  RpcWorkerClient client(0, &h.bus, "ps", retry);

  for (int c = 0; c < 12; ++c) {
    ASSERT_TRUE(client.Push(c, SparseVector({2}, {1.0})).ok());
  }
  std::vector<double> replica;
  ASSERT_TRUE(client.PullCached(&replica, nullptr).ok());
  ASSERT_EQ(replica.size(), 8u);
  EXPECT_GT(h.bus.fault_stats().dropped_requests, 0);
  EXPECT_GT(client.retry_count(), 0);
}

TEST(PsServiceTest, DroppedResponsesDontDoubleApplyPushes) {
  // A dropped *response* means the server already applied the push; the
  // client times out and retransmits. The (worker, clock) dedup table
  // must acknowledge the duplicate without re-applying, so the SSP sum
  // stays exact — at-least-once delivery, exactly-once application.
  SspRule rule;
  PsOptions opts;
  opts.num_servers = 1;
  opts.sync = SyncPolicy::Asp();
  ParameterServer ps(4, 1, rule, opts);
  MessageBus bus;
  PsService service(&ps, &bus, "ps");
  ASSERT_TRUE(service.status().ok());

  FaultPlan plan;
  plan.drop_response_prob = 0.4;
  plan.duplicate_prob = 0.2;  // duplicated requests must also dedup
  plan.seed = 23;
  bus.SetFaultPlan(plan);

  RpcRetryPolicy retry;
  retry.timeout = std::chrono::milliseconds(10);
  retry.max_attempts = 30;
  retry.initial_backoff = std::chrono::microseconds(100);
  RpcWorkerClient client(0, &bus, "ps", retry);

  const int kPushes = 10;
  for (int c = 0; c < kPushes; ++c) {
    ASSERT_TRUE(client.Push(c, SparseVector({0}, {1.0})).ok());
  }
  bus.Flush();
  const std::vector<double> snapshot = ps.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot[0], static_cast<double>(kPushes));
  EXPECT_EQ(ps.TotalPushes(), kPushes);
  EXPECT_GT(bus.fault_stats().dropped_responses, 0);
  EXPECT_GT(client.retry_count(), 0);
}

TEST(PsServiceTest, PullCachedMatchesPullBitForBit) {
  // The version-aware cached pull must be indistinguishable from the
  // server's dense reference (PullFull) and from a client that sends no
  // tags, round after round, while shipping fewer content bytes.
  SspRule rule;
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.scheme = PartitionScheme::kRange;
  opts.sync = SyncPolicy::Asp();
  ParameterServer ps(64, 2, rule, opts);
  MessageBus bus;
  PsService service(&ps, &bus, "ps");
  ASSERT_TRUE(service.status().ok());
  RpcWorkerClient cached(0, &bus, "ps");
  RpcWorkerClient full(1, &bus, "ps", RpcRetryPolicy(), /*push_window=*/0,
                       /*delta_pull=*/false);

  Rng rng(88);
  for (int round = 0; round < 20; ++round) {
    std::vector<int64_t> idx;
    std::vector<double> val;
    for (int64_t key = static_cast<int64_t>(rng.NextUint64(4)); key < 64;
         key += 4 + static_cast<int64_t>(rng.NextUint64(20))) {
      idx.push_back(key);
      val.push_back(rng.NextDouble());
    }
    ASSERT_TRUE(cached.Push(round, SparseVector(idx, val)).ok());
    std::vector<double> a, b;
    int cmin_a = -1, cmin_b = -1, cmin_ref = -1;
    ASSERT_TRUE(cached.PullCached(&a, &cmin_a).ok());
    ASSERT_TRUE(full.PullCached(&b, &cmin_b).ok());
    const std::vector<double> ref = ps.PullFull(0, &cmin_ref);
    ASSERT_EQ(a.size(), ref.size());
    ASSERT_EQ(std::memcmp(a.data(), ref.data(), ref.size() * sizeof(double)),
              0)
        << "cached, round " << round;
    ASSERT_EQ(b.size(), ref.size());
    ASSERT_EQ(std::memcmp(b.data(), ref.data(), ref.size() * sizeof(double)),
              0)
        << "tag-less, round " << round;
    EXPECT_EQ(cmin_a, cmin_ref);
    EXPECT_EQ(cmin_b, cmin_ref);
  }
  EXPECT_LT(cached.pulled_bytes(), cached.pulled_bytes_full());
  EXPECT_LT(cached.pulled_bytes(), full.pulled_bytes());
}

TEST(PsServiceTest, PullCachedSurvivesLossyBus) {
  // Delta pulls under at-least-once delivery: dropped requests, dropped
  // responses, and duplicates must leave the client cache coherent —
  // every successful pull equals the server snapshot.
  SspRule rule;
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.scheme = PartitionScheme::kRange;
  opts.sync = SyncPolicy::Asp();
  ParameterServer ps(48, 1, rule, opts);
  MessageBus bus;
  PsService service(&ps, &bus, "ps");
  ASSERT_TRUE(service.status().ok());

  FaultPlan plan;
  plan.drop_request_prob = 0.15;
  plan.drop_response_prob = 0.15;
  plan.duplicate_prob = 0.10;
  plan.seed = 19;
  bus.SetFaultPlan(plan);

  RpcRetryPolicy retry;
  retry.timeout = std::chrono::milliseconds(10);
  retry.max_attempts = 60;
  retry.initial_backoff = std::chrono::microseconds(100);
  RpcWorkerClient client(0, &bus, "ps", retry);

  Rng rng(5);
  for (int round = 0; round < 15; ++round) {
    const int64_t key = static_cast<int64_t>(rng.NextUint64(48));
    ASSERT_TRUE(
        client.Push(round, SparseVector({key}, {1.0})).ok());
    std::vector<double> replica;
    int cmin = -1;
    ASSERT_TRUE(client.PullCached(&replica, &cmin).ok());
    bus.Flush();
    ASSERT_EQ(replica, ps.Snapshot()) << "round " << round;
  }
  EXPECT_GT(client.retry_count(), 0);
  EXPECT_GT(bus.fault_stats().total(), 0);
}

TEST(PsServiceTest, PullCachedRecoversAfterCheckpointRestore) {
  // A checkpoint restore rewinds shard versions behind the client's
  // back; the epoch in the content tag invalidates the cache so the next
  // cached pull re-ships the true (restored) state instead of trusting a
  // colliding version number.
  SspRule rule;
  PsOptions opts;
  opts.num_servers = 2;
  opts.sync = SyncPolicy::Asp();
  ParameterServer ps(16, 1, rule, opts);
  MessageBus bus;
  PsService service(&ps, &bus, "ps");
  ASSERT_TRUE(service.status().ok());
  RpcWorkerClient client(0, &bus, "ps");

  ASSERT_TRUE(client.Push(0, SparseVector({2}, {1.0})).ok());
  std::vector<double> replica;
  int cmin = -1;
  ASSERT_TRUE(client.PullCached(&replica, &cmin).ok());
  ASSERT_DOUBLE_EQ(replica[2], 1.0);

  const std::string path =
      testing::TempDir() + "/hetps_rpc_pull_ckpt.txt";
  ASSERT_TRUE(SaveCheckpointToFile(ps, path).ok());
  ASSERT_TRUE(client.Push(1, SparseVector({2, 3}, {5.0, 7.0})).ok());
  ASSERT_TRUE(client.PullCached(&replica, &cmin).ok());
  ASSERT_DOUBLE_EQ(replica[2], 6.0);
  ASSERT_TRUE(RestoreCheckpointFromFile(&ps, path).ok());
  std::remove(path.c_str());

  ASSERT_TRUE(client.PullCached(&replica, &cmin).ok());
  EXPECT_EQ(replica, ps.Snapshot());
  EXPECT_DOUBLE_EQ(replica[2], 1.0);
  EXPECT_DOUBLE_EQ(replica[3], 0.0);
}

TEST(PsServiceTest, PullCachedRejectsMalformedResponses) {
  // The pull response is untrusted bytes. A fake "ps" endpoint forwards
  // every request to the real service, except that it answers an armed
  // kPullDelta with a crafted frame whose partition 0 is well-formed
  // (garbage content under the server's current tag) and whose later
  // part is not. Each frame must fail with InvalidArgument and reach the
  // cache not even in part: the next good pull equals the server state
  // bit for bit, which it would not if partition 0's garbage had landed
  // under a tag the server then reports as unchanged.
  SspRule rule;
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.scheme = PartitionScheme::kRange;
  opts.sync = SyncPolicy::Asp();
  ParameterServer ps(64, 1, rule, opts);
  ASSERT_EQ(ps.num_partitions(), 4);
  // Declared before the bus: its endpoint thread holds the handler below.
  std::mutex mu;
  std::vector<uint8_t> armed;  // guarded by mu
  MessageBus bus;
  PsService service(&ps, &bus, "real-ps");
  ASSERT_TRUE(service.status().ok());
  ASSERT_TRUE(bus.RegisterEndpoint("ps", [&](const Envelope& request) {
                   {
                     std::lock_guard<std::mutex> lock(mu);
                     if (!armed.empty() && !request.payload.empty() &&
                         request.payload[0] ==
                             static_cast<uint8_t>(PsOpCode::kPullDelta)) {
                       return std::exchange(armed, {});
                     }
                   }
                   return bus
                       .BlockingCall(request.from, "real-ps",
                                     request.payload, kForever)
                       .payload;
                 }).ok());

  RpcWorkerClient client(0, &bus, "ps");
  std::vector<double> replica;
  int cmin = -1;
  ASSERT_TRUE(client.PullCached(&replica, &cmin).ok());

  // Each crafted frame: header, a valid partition 0 that would poison the
  // cache if applied on its own, then a malformed rest.
  struct Case {
    std::string name;
    uint64_t parts;
    std::function<void(ByteWriter*)> rest;
  };
  const auto unchanged = [](ByteWriter* w, int count) {
    for (int i = 0; i < count; ++i) {
      w->WriteU8(static_cast<uint8_t>(PartitionPull::Encoding::kUnchanged));
      w->WriteI64(1);
    }
  };
  const std::vector<Case> cases = {
      {"dense piece of the wrong length", 4,
       [&](ByteWriter* w) {
         w->WriteU8(static_cast<uint8_t>(PartitionPull::Encoding::kDense));
         w->WriteI64(1);
         w->WriteDenseVector(std::vector<double>(5, 1.0));  // needs 16
         unchanged(w, 2);
       }},
      {"sparse index out of range", 4,
       [&](ByteWriter* w) {
         w->WriteU8(static_cast<uint8_t>(PartitionPull::Encoding::kSparse));
         w->WriteI64(1);
         w->WriteSparseVector(SparseVector({20}, {1.0}));  // local < 16
         unchanged(w, 2);
       }},
      {"unknown encoding", 4,
       [&](ByteWriter* w) {
         w->WriteU8(9);
         w->WriteI64(1);
         unchanged(w, 2);
       }},
      {"changed partition count", 3,
       [&](ByteWriter* w) { unchanged(w, 2); }},
  };

  Rng rng(17);
  int clock = 0;
  for (const Case& c : cases) {
    // Fresh state in every partition, so the good pull has work to do
    // and partition 0's tag moves past the one the cache holds.
    SparseVector update;
    for (int64_t key = 0; key < 64;
         key += 1 + static_cast<int64_t>(rng.NextUint64(6))) {
      update.PushBack(key, rng.NextDouble() - 0.5);
    }
    ASSERT_TRUE(client.Push(clock++, update).ok()) << c.name;
    ByteWriter w;
    w.WriteU8(0);   // status OK
    w.WriteI64(0);  // cmin
    w.WriteU64(c.parts);
    w.WriteU8(static_cast<uint8_t>(PartitionPull::Encoding::kSparse));
    w.WriteI64(ps.PartitionTag(0));
    w.WriteSparseVector(SparseVector({3}, {123.0}));
    c.rest(&w);
    {
      std::lock_guard<std::mutex> lock(mu);
      armed = w.TakeBuffer();
    }
    EXPECT_TRUE(client.PullCached(&replica, &cmin).IsInvalidArgument())
        << c.name;
    ASSERT_TRUE(client.PullCached(&replica, &cmin).ok()) << c.name;
    const std::vector<double> truth = ps.Snapshot();
    ASSERT_EQ(replica.size(), truth.size());
    EXPECT_EQ(std::memcmp(replica.data(), truth.data(),
                          truth.size() * sizeof(double)),
              0)
        << c.name;
  }
}

TEST(PsServiceTest, ClientLayoutMatchesACutServer) {
  // The handshake carries the server's range cuts, so the client splits
  // every key into the partition and local index the server stores it
  // at: a unit push to each key lands on that key, and the pull scatters
  // every partition back where it belongs.
  for (const PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kRangeHash,
        PartitionScheme::kHash}) {
    SspRule rule;
    PsOptions opts;
    opts.num_servers = 2;
    opts.partitions_per_server = 2;
    opts.scheme = scheme;
    opts.sync = SyncPolicy::Asp();
    std::vector<bool> held(48, false);
    for (size_t k = 0; k < 12; ++k) held[k] = true;
    opts.range_cuts = Partitioner::HeldKeyCuts(held, 4);
    ASSERT_EQ(opts.range_cuts, (std::vector<int64_t>{0, 3, 6, 9, 48}));
    ParameterServer ps(48, 1, rule, opts);
    MessageBus bus;
    PsService service(&ps, &bus, "ps");
    ASSERT_TRUE(service.status().ok());
    RpcWorkerClient client(0, &bus, "ps");
    for (int64_t key = 0; key < 48; ++key) {
      ASSERT_TRUE(client
                      .Push(static_cast<int>(key),
                            SparseVector({key}, {static_cast<double>(key + 1)}))
                      .ok())
          << PartitionSchemeName(scheme) << " key " << key;
    }
    const std::vector<double> truth = ps.Snapshot();
    for (int64_t key = 0; key < 48; ++key) {
      ASSERT_EQ(truth[static_cast<size_t>(key)], static_cast<double>(key + 1))
          << PartitionSchemeName(scheme) << " key " << key;
    }
    std::vector<double> replica;
    int cmin = -1;
    ASSERT_TRUE(client.PullCached(&replica, &cmin).ok());
    EXPECT_EQ(replica, truth) << PartitionSchemeName(scheme);
  }
}

TEST(PsServiceTest, MalformedLayoutHandshakeIsRefused) {
  // The kLayout reply is untrusted bytes. A fake "ps" endpoint forwards
  // every request to the real service but answers kLayout with a crafted
  // frame: a 48-key space on 2 servers x 2 partitions, then each kind of
  // bad cut list. Each must be refused with InvalidArgument before the
  // client builds a layout (a bad cut would otherwise abort in
  // Partitioner) or sends a push.
  SspRule rule;
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.scheme = PartitionScheme::kRange;
  opts.sync = SyncPolicy::Asp();
  ParameterServer ps(48, 1, rule, opts);
  std::mutex mu;
  std::vector<uint8_t> armed;  // guarded by mu
  MessageBus bus;
  PsService service(&ps, &bus, "real-ps");
  ASSERT_TRUE(service.status().ok());
  ASSERT_TRUE(bus.RegisterEndpoint("ps", [&](const Envelope& request) {
                   {
                     std::lock_guard<std::mutex> lock(mu);
                     if (!armed.empty() && !request.payload.empty() &&
                         request.payload[0] ==
                             static_cast<uint8_t>(PsOpCode::kLayout)) {
                       return std::exchange(armed, {});
                     }
                   }
                   return bus
                       .BlockingCall(request.from, "real-ps",
                                     request.payload, kForever)
                       .payload;
                 }).ok());

  // The reply up to the cut list: status OK, scheme, dim 48, 2 servers,
  // P = 4 partitions, no update filter.
  const auto head = [](ByteWriter* w, PartitionScheme scheme) {
    w->WriteU8(0);
    w->WriteU8(static_cast<uint8_t>(scheme));
    w->WriteI64(48);
    w->WriteI64(2);
    w->WriteI64(4);
    w->WriteDouble(0.0);
  };
  const auto cuts = [](ByteWriter* w, uint64_t count,
                       const std::vector<int64_t>& points) {
    w->WriteU64(count);
    for (int64_t point : points) w->WriteI64(point);
  };
  struct Case {
    std::string name;
    std::function<void(ByteWriter*)> frame;
  };
  // A range-scheme reply whose cut list holds `count`, then `points`.
  const auto range = [&](uint64_t count, std::vector<int64_t> points) {
    return [=](ByteWriter* w) {
      head(w, PartitionScheme::kRange);
      cuts(w, count, points);
    };
  };
  const std::vector<Case> cases = {
      {"first cut not 0", range(5, {1, 3, 6, 9, 48})},
      {"last cut not dim", range(5, {0, 3, 6, 9, 47})},
      {"repeated cut", range(5, {0, 6, 6, 9, 48})},
      {"falling cut", range(5, {0, 9, 6, 12, 48})},
      {"P cut points", range(4, {0, 3, 9, 48})},
      {"P+2 cut points", range(6, {0, 3, 6, 9, 12, 48})},
      {"count beyond the frame", range(1ULL << 40, {0, 48})},
      {"truncated cut list", range(5, {0, 3, 6, 9})},
      {"no cut list",
       [&](ByteWriter* w) { head(w, PartitionScheme::kRangeHash); }},
      {"truncated header",
       [&](ByteWriter* w) {
         w->WriteU8(0);
         w->WriteU8(static_cast<uint8_t>(PartitionScheme::kRange));
         w->WriteI64(48);
       }},
      {"trailing byte after the cuts",
       [&](ByteWriter* w) {
         range(5, {0, 3, 6, 9, 48})(w);
         w->WriteU8(7);
       }},
      {"trailing bytes after a hash layout",
       [&](ByteWriter* w) {
         head(w, PartitionScheme::kHash);
         cuts(w, 5, {0, 3, 6, 9, 48});
       }},
  };
  for (const Case& c : cases) {
    ByteWriter w;
    c.frame(&w);
    {
      std::lock_guard<std::mutex> lock(mu);
      armed = w.TakeBuffer();
    }
    RpcWorkerClient client(0, &bus, "ps");
    const Status st = client.Push(0, SparseVector({3}, {1.0}));
    EXPECT_TRUE(st.IsInvalidArgument()) << c.name << ": " << st.ToString();
    EXPECT_NE(st.message().find("bad partition-layout handshake"),
              std::string::npos)
        << c.name << ": " << st.ToString();
  }
  EXPECT_EQ(ps.TotalPushes(), 0);
  // The same frame with good cuts is accepted, and the real server's
  // answer still works.
  {
    ByteWriter w;
    range(5, {0, 12, 24, 36, 48})(&w);
    std::lock_guard<std::mutex> lock(mu);
    armed = w.TakeBuffer();
  }
  RpcWorkerClient good(0, &bus, "ps");
  EXPECT_TRUE(good.Push(0, SparseVector({3}, {1.0})).ok());
  RpcWorkerClient real(0, &bus, "ps");
  EXPECT_TRUE(real.Push(1, SparseVector({3}, {1.0})).ok());
  EXPECT_EQ(ps.Snapshot()[3], 2.0);
}

TEST(PsServiceTest, DistributedSgdTrainsOverRpc) {
  // Full mini end-to-end: three worker threads run Algorithm 1 against
  // the PS purely through serialized messages.
  SyntheticConfig cfg;
  cfg.num_examples = 240;
  cfg.num_features = 120;
  cfg.avg_nnz = 6;
  cfg.seed = 21;
  Dataset dataset = GenerateSynthetic(cfg);
  Rng rng(22);
  dataset.Shuffle(&rng);
  LogisticLoss loss;
  FixedRate sched(0.5);

  const int workers = 3;
  RpcHarness h(workers, dataset.dimension(), SyncPolicy::Ssp(2));
  const auto shards = SplitData(dataset.size(), workers,
                                ShardingPolicy::kContiguous);
  std::vector<std::thread> threads;
  for (int m = 0; m < workers; ++m) {
    threads.emplace_back([&, m] {
      RpcWorkerClient client(m, &h.bus, "ps");
      LocalWorkerSgd::Options sgd_opts;
      sgd_opts.batch_size = 8;
      LocalWorkerSgd sgd(&dataset, shards[static_cast<size_t>(m)], &loss,
                         &sched, sgd_opts);
      std::vector<double> replica(
          static_cast<size_t>(dataset.dimension()), 0.0);
      int cp = 0;
      for (int c = 0; c < 10; ++c) {
        SparseVector update;
        sgd.RunClock(c, &replica, &update);
        ASSERT_TRUE(client.Push(c, update).ok());
        if (SyncPolicy::Ssp(2).NeedsPull(c, cp)) {
          ASSERT_TRUE(client.WaitUntilCanAdvance(c + 1).ok());
          int cmin = 0;
          ASSERT_TRUE(client.PullCached(&replica, &cmin).ok());
          cp = cmin;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double objective =
      dataset.Objective(loss, h.ps.Snapshot(), 1e-4);
  EXPECT_LT(objective, 0.5);
  EXPECT_GE(h.bus.delivered_count(), workers * 10);
}

TEST(PsServiceTest, ReportClockFeedsStragglerStatisticsAndHook) {
  /// Records what the plane shows its policy.
  class Seen final : public StragglerMitigation {
   public:
    std::vector<ShardMove> OnClockReport(
        int worker, int clock, const std::vector<double>& clock_seconds,
        const std::vector<size_t>& shard_sizes) override {
      (void)shard_sizes;
      last_worker = worker;
      last_clock = clock;
      seconds = clock_seconds;
      ++calls;
      return {};
    }
    int last_worker = -1;
    int last_clock = -1;
    std::vector<double> seconds;
    int calls = 0;
  };
  DynSgdRule rule;
  MessageBus bus;
  PsOptions o;
  o.num_servers = 2;
  o.sync = SyncPolicy::Asp();
  ParameterServer ps(8, 2, rule, o);
  Seen policy;
  ShardPlane plane(&ps, {DataShard{{0}}, DataShard{{1}}}, nullptr, &policy);
  PsServiceOptions svc;
  svc.on_clock_report = [&](int worker, int clock, double seconds) {
    plane.OnClockReport(worker, clock, seconds);
  };
  PsService service(&ps, &bus, "ps", svc);
  ASSERT_TRUE(service.status().ok());

  RpcWorkerClient client(0, &bus, "ps");
  ASSERT_TRUE(client.ReportClock(3, 2.5).ok());
  // The hook handed the report to the plane, which keeps the straggler
  // statistics and showed them to its policy.
  EXPECT_EQ(policy.calls, 1);
  EXPECT_EQ(policy.last_worker, 0);
  EXPECT_EQ(policy.last_clock, 3);
  EXPECT_EQ(policy.seconds, (std::vector<double>{2.5, 0.0}));

  // Garbage timings are refused before they can poison the statistics,
  // and the hook must not fire for them.
  EXPECT_TRUE(client.ReportClock(4, -1.0).IsInvalidArgument());
  EXPECT_EQ(policy.calls, 1);
  RpcWorkerClient other(1, &bus, "ps");
  ASSERT_TRUE(other.ReportClock(0, 1.5).ok());
  EXPECT_EQ(policy.seconds, (std::vector<double>{2.5, 1.5}));
}

// An evicted sender is refused every opcode, assigned or not, except
// the observability ones: a dead worker can still be diagnosed, but it
// can never sneak state in behind the eviction's back.
TEST(PsServiceTest, EvictedSenderMayOnlyObserve) {
  DynSgdRule rule;
  MessageBus bus;
  PsOptions o;
  o.num_servers = 2;
  o.sync = SyncPolicy::Asp();
  ParameterServer ps(8, 2, rule, o);
  double now = 0.0;
  PsServiceOptions svc;
  svc.liveness.heartbeat_timeout_seconds = 5.0;
  svc.liveness.now_fn = [&now] { return now; };
  PsService service(&ps, &bus, "ps", svc);
  ASSERT_TRUE(service.status().ok());
  RpcWorkerClient c0(0, &bus, "ps", RpcRetryPolicy::NoRetry());
  RpcWorkerClient c1(1, &bus, "ps", RpcRetryPolicy::NoRetry());
  ASSERT_TRUE(c0.Push(0, SparseVector({1}, {1.0})).ok());
  ASSERT_TRUE(c1.Push(0, SparseVector({2}, {1.0})).ok());

  // Worker 1 goes silent past the timeout; worker 0's next request
  // (which beats for itself first) sweeps the zombie out.
  now = 10.0;
  ASSERT_TRUE(c0.Push(1, SparseVector({1}, {1.0})).ok());
  ASSERT_FALSE(ps.IsWorkerLive(1));

  // Through the client...
  std::vector<double> replica;
  int cp = 0;
  EXPECT_TRUE(c1.PullCached(&replica, &cp).IsFailedPrecondition());
  EXPECT_TRUE(c1.Push(1, SparseVector({2}, {1.0})).IsFailedPrecondition());
  EXPECT_TRUE(c1.ReportClock(1, 1.0).IsFailedPrecondition());
  // ...and byte by byte, byte 9 (once a rejoin request) included.
  const auto answer = [&](uint8_t op) {
    ByteWriter w;
    w.WriteU8(op);
    if (op == static_cast<uint8_t>(PsOpCode::kMetricsScrape)) {
      w.WriteU8(0);  // a full scrape
    } else if (op == static_cast<uint8_t>(PsOpCode::kObsControl)) {
      w.WriteU8(2);  // histogram exemplars...
      w.WriteU8(0);  // ...stay off
    } else {
      w.WriteI64(1);
    }
    BusReply reply =
        bus.BlockingCall("worker-1", "ps", w.TakeBuffer(), kForever);
    EXPECT_TRUE(reply.ok());
    return reply.ok() && !reply.payload.empty() ? reply.payload[0] : 255;
  };
  const uint8_t refused =
      static_cast<uint8_t>(StatusCode::kFailedPrecondition);
  for (int op = 0; op < 256; ++op) {
    const bool observes =
        op == static_cast<int>(PsOpCode::kStatus) ||
        op == static_cast<int>(PsOpCode::kMetricsScrape) ||
        op == static_cast<int>(PsOpCode::kObsControl);
    EXPECT_EQ(answer(static_cast<uint8_t>(op)), observes ? 0 : refused)
        << "opcode " << op;
  }
  EXPECT_FALSE(ps.IsWorkerLive(1));
  EXPECT_NE(service.heartbeat_monitor(), nullptr);
}

}  // namespace
}  // namespace hetps
