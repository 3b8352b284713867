// The one client over both channels: what it checks and applies before a
// push leaves the worker, and what it accepts from the bus handshake.

#include "ps/ps_client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "core/consolidation.h"
#include "net/message_bus.h"
#include "net/ps_service.h"
#include "net/serializer.h"
#include "obs/metrics.h"
#include "ps/worker_client.h"

namespace hetps {
namespace {

PsOptions AspOptions(double filter_epsilon = 0.0) {
  PsOptions opts;
  opts.num_servers = 2;
  opts.sync = SyncPolicy::Asp();
  opts.update_filter_epsilon = filter_epsilon;
  return opts;
}

TEST(PsClientTest, OutOfRangeKeyIsInvalidArgumentOnBothChannels) {
  SspRule rule;
  for (int window = 0; window <= 1; ++window) {
    SCOPED_TRACE(window);
    ParameterServer ps(8, 2, rule, AspOptions());
    MessageBus bus;
    PsService service(&ps, &bus, "ps");
    ASSERT_TRUE(service.status().ok());
    WorkerClient local(0, &ps, /*delta_pull=*/true, window);
    RpcWorkerClient remote(1, &bus, "ps", RpcRetryPolicy(), window);
    ASSERT_TRUE(local.Push(0, SparseVector({1}, {1.0})).ok());
    ASSERT_TRUE(remote.Push(0, SparseVector({2}, {1.0})).ok());
    ASSERT_TRUE(local.Flush().ok());
    ASSERT_TRUE(remote.Flush().ok());
    const std::vector<double> before = ps.Snapshot();
    for (PsClient* client : {static_cast<PsClient*>(&local),
                             static_cast<PsClient*>(&remote)}) {
      for (const SparseVector& bad :
           {SparseVector({8}, {1.0}), SparseVector({-1, 3}, {1.0, 1.0})}) {
        EXPECT_TRUE(client->Push(1, bad).IsInvalidArgument())
            << "worker " << client->worker_id();
        EXPECT_TRUE(client->Flush().ok());
      }
      EXPECT_EQ(client->push_count(), 1);
    }
    // Nothing reached the store or the clock table.
    EXPECT_EQ(ps.Snapshot(), before);
    EXPECT_EQ(ps.cmin(), 1);
  }
}

TEST(PsClientTest, BothChannelsApplyTheServerUpdateFilter) {
  SspRule rule;
  const SparseVector update({1, 5, 9}, {0.1, 1.0, -0.2});
  {
    ParameterServer ps(12, 1, rule, AspOptions(0.5));
    WorkerClient client(0, &ps);
    ASSERT_TRUE(client.Push(0, update).ok());
    EXPECT_EQ(ps.Snapshot()[1], 0.0);
    EXPECT_EQ(ps.Snapshot()[5], 1.0);
    EXPECT_EQ(ps.Snapshot()[9], 0.0);
  }
  {
    ParameterServer ps(12, 1, rule, AspOptions(0.5));
    MessageBus bus;
    PsService service(&ps, &bus, "ps");
    ASSERT_TRUE(service.status().ok());
    RpcWorkerClient client(0, &bus, "ps");
    ASSERT_TRUE(client.Push(0, update).ok());
    EXPECT_EQ(ps.Snapshot()[1], 0.0);
    EXPECT_EQ(ps.Snapshot()[5], 1.0);
    EXPECT_EQ(ps.Snapshot()[9], 0.0);
  }
}

TEST(PsClientTest, BusRejectsAMalformedHandshake) {
  // A fake "ps" endpoint answers the layout handshake with a valid
  // layout followed by the given filter bytes.
  struct Case {
    const char* name;
    bool write_epsilon;
    double epsilon;
  };
  const Case cases[] = {
      {"NaN filter", true, std::numeric_limits<double>::quiet_NaN()},
      {"negative filter", true, -0.5},
      {"infinite filter", true, std::numeric_limits<double>::infinity()},
      {"missing filter", false, 0.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MessageBus bus;
    ASSERT_TRUE(bus.RegisterEndpoint("ps", [c](const Envelope&) {
                     ByteWriter w;
                     w.WriteU8(0);  // status OK
                     w.WriteU8(static_cast<uint8_t>(
                         PartitionScheme::kRangeHash));
                     w.WriteI64(8);  // dim
                     w.WriteI64(1);  // servers
                     w.WriteI64(2);  // partitions
                     if (c.write_epsilon) w.WriteDouble(c.epsilon);
                     return w.TakeBuffer();
                   }).ok());
    RpcWorkerClient client(0, &bus, "ps", RpcRetryPolicy::NoRetry());
    const Status push = client.Push(0, SparseVector({1}, {1.0}));
    std::vector<double> replica;
    const Status pull = client.PullCached(&replica, nullptr);
    if (c.write_epsilon) {
      EXPECT_TRUE(push.IsInvalidArgument()) << push.ToString();
      EXPECT_TRUE(pull.IsInvalidArgument()) << pull.ToString();
    } else {
      EXPECT_FALSE(push.ok());
      EXPECT_FALSE(pull.ok());
    }
    EXPECT_EQ(client.push_count(), 0);
  }
}

TEST(PsClientTest, RefreshInPlaceOnlyForTheBufferTheLastPullFilled) {
  // A pull refreshes in place only the buffer the client's last
  // successful pull filled (or FinishPrefetch installed); every other
  // pull copies the whole cache. Key 5 is a listed write and key 7 an
  // unlisted one, which only a copy undoes. No push happens between
  // scribble and pull, so every partition ships kUnchanged and the pull
  // itself rewrites nothing.
  SspRule rule;
  ParameterServer ps(16, 2, rule, AspOptions());
  MessageBus bus;
  PsServiceOptions svc;
  svc.liveness.heartbeat_timeout_seconds = 5.0;
  svc.liveness.now_fn = [] { return 0.0; };
  PsService service(&ps, &bus, "ps", svc);
  ASSERT_TRUE(service.status().ok());
  // One attempt, and a deadline a healthy local round trip never nears.
  RpcRetryPolicy one_try = RpcRetryPolicy::NoRetry();
  one_try.timeout = std::chrono::milliseconds(200);
  RpcWorkerClient client(0, &bus, "ps", one_try);
  FaultPlan lose_requests;
  lose_requests.drop_request_prob = 1.0;
  // The bus channel records process-wide.
  const Counter* copies =
      GlobalMetrics().counter("client.replica_full_copies");
  const HistogramMetric* refreshes =
      GlobalMetrics().histogram("client.replica_refresh_us");
  const int64_t copies_before = copies->value();
  const int64_t refreshes_before = refreshes->count();
  const std::vector<int64_t> written = {5};
  ps.Push(0, 0, SparseVector({1, 5, 9, 13}, {1.0, 2.0, 0.5, -1.0}));
  const std::vector<double> server = ps.Snapshot();
  auto scribble = [](std::vector<double>* buffer) {
    (*buffer)[5] = 42.0;
    (*buffer)[7] = 42.0;
  };

  std::vector<double> a;
  ASSERT_TRUE(client.PullCached(&a, nullptr, &written).ok());  // first: copy
  EXPECT_EQ(a, server);
  a[5] = 42.0;
  ASSERT_TRUE(client.PullCached(&a, nullptr, &written).ok());  // in place
  EXPECT_EQ(a, server);
  EXPECT_EQ(copies->value() - copies_before, 1);

  std::vector<double> b = a;  // another buffer of the same size
  scribble(&b);
  ASSERT_TRUE(client.PullCached(&b, nullptr, &written).ok());
  EXPECT_EQ(b, server);
  scribble(&b);
  ASSERT_TRUE(client.PullCached(&b, nullptr, nullptr).ok());  // no list
  EXPECT_EQ(b, server);
  EXPECT_EQ(copies->value() - copies_before, 3);

  // A pull whose request is lost fails, and the client forgets the
  // buffer.
  bus.SetFaultPlan(lose_requests);
  EXPECT_TRUE(client.PullCached(&b, nullptr, &written).IsDeadlineExceeded());
  bus.SetFaultPlan(FaultPlan::None());
  scribble(&b);
  ASSERT_TRUE(client.PullCached(&b, nullptr, &written).ok());  // after error
  EXPECT_EQ(b, server);
  EXPECT_EQ(copies->value() - copies_before, 4);

  // A prefetch fills its own buffer, which then counts as filled.
  ASSERT_TRUE(client.StartPrefetch(0).ok());
  scribble(&b);
  ASSERT_TRUE(client.FinishPrefetch(&b).ok());
  EXPECT_EQ(b, server);
  b[5] = 42.0;
  ASSERT_TRUE(client.PullCached(&b, nullptr, &written).ok());  // in place
  EXPECT_EQ(b, server);
  EXPECT_EQ(copies->value() - copies_before, 5);
  // One refresh sample per successful pull, copies included.
  EXPECT_EQ(refreshes->count() - refreshes_before, 7);
}

}  // namespace
}  // namespace hetps
