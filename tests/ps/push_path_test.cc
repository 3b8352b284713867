// The push path both channels share: the PushWindow on its own (with a
// fake send), and every way a push reaches the shards — the in-process
// facade and the client over either channel at windows 0 and 1 —
// applying the same update under every consolidation rule. CI's
// push-smoke sanitizer legs select these by the PushWindow|PushPathParity
// prefixes.

#include "ps/push_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/message_bus.h"
#include "net/ps_service.h"
#include "ps/parameter_server.h"
#include "ps/worker_client.h"
#include "rule_cases.h"
#include "util/rng.h"

namespace hetps {
namespace {

/// A fake send: records every (clock, payload) it was handed and the
/// thread it ran on, fails the clocks in `fail`, and holds every send
/// while the gate is closed.
class FakeSend {
 public:
  PushWindow<int>::SendFn Fn() {
    return [this](int clock, const int& payload) {
      std::unique_lock<std::mutex> lock(mu_);
      gate_cv_.wait(lock, [this] { return open_; });
      clocks_.push_back(clock);
      payloads_.push_back(&payload);
      threads_.push_back(std::this_thread::get_id());
      for (int bad : fail_) {
        if (bad == clock) return Status::FailedPrecondition("refused");
      }
      return Status::OK();
    };
  }

  void Fail(int clock) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_.push_back(clock);
  }
  void SetGate(bool open) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = open;
    }
    gate_cv_.notify_all();
  }
  std::vector<int> clocks() {
    std::lock_guard<std::mutex> lock(mu_);
    return clocks_;
  }
  std::vector<const int*> payloads() {
    std::lock_guard<std::mutex> lock(mu_);
    return payloads_;
  }
  std::vector<std::thread::id> threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  std::mutex mu_;
  std::condition_variable gate_cv_;
  bool open_ = true;
  std::vector<int> fail_;
  std::vector<int> clocks_;
  std::vector<const int*> payloads_;
  std::vector<std::thread::id> threads_;
};

TEST(PushWindowTest, WindowZeroSendsInlineWithoutCopyOrThread) {
  // A sentinel no window writes: window 0 must leave it alone.
  Gauge* peak = GlobalMetrics().gauge("push.inflight_peak");
  peak->Set(-1.0);
  FakeSend fake;
  fake.Fail(1);
  PushWindow<int> window(0, fake.Fn());
  const int payload = 7;
  EXPECT_TRUE(window.Push(0, payload).ok());
  // The send's status comes straight back; nothing latches at window 0.
  EXPECT_TRUE(window.Push(1, payload).IsFailedPrecondition());
  EXPECT_TRUE(window.Push(2, payload).ok());
  EXPECT_TRUE(window.Drain().ok());
  EXPECT_EQ(fake.clocks(), (std::vector<int>{0, 1, 2}));
  for (const int* seen : fake.payloads()) EXPECT_EQ(seen, &payload);
  for (std::thread::id id : fake.threads()) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(window.hidden_seconds(), 0.0);
  // No window, no gauges.
  EXPECT_DOUBLE_EQ(peak->value(), -1.0);
}

TEST(PushWindowTest, SendsInFifoOrderOnTheSenderThread) {
  const Gauge* inflight = GlobalMetrics().gauge("push.inflight");
  const double inflight_before = inflight->value();
  FakeSend fake;
  PushWindow<int> window(2, fake.Fn());
  std::vector<int> expected;
  for (int c = 0; c < 50; ++c) {
    ASSERT_TRUE(window.Push(c, c * 10).ok());
    expected.push_back(c);
  }
  ASSERT_TRUE(window.Drain().ok());
  EXPECT_EQ(fake.clocks(), expected);
  for (std::thread::id id : fake.threads()) {
    EXPECT_NE(id, std::this_thread::get_id());
  }
  EXPECT_DOUBLE_EQ(inflight->value(), inflight_before);
}

TEST(PushWindowTest, FullWindowBlocksTheOwner) {
  const Gauge* inflight = GlobalMetrics().gauge("push.inflight");
  const double inflight_before = inflight->value();
  FakeSend fake;
  fake.SetGate(false);
  PushWindow<int> window(2, fake.Fn());
  // Two pushes fit: one held in the send, one queued.
  ASSERT_TRUE(window.Push(0, 0).ok());
  ASSERT_TRUE(window.Push(1, 1).ok());
  std::atomic<bool> third_returned{false};
  std::thread owner([&] {
    EXPECT_TRUE(window.Push(2, 2).ok());
    third_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_returned.load());
  EXPECT_DOUBLE_EQ(inflight->value() - inflight_before, 2.0);
  fake.SetGate(true);
  owner.join();
  EXPECT_TRUE(third_returned.load());
  ASSERT_TRUE(window.Drain().ok());
  EXPECT_EQ(fake.clocks(), (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(GlobalMetrics().gauge("push.inflight_peak")->value(),
                   2.0);
  EXPECT_DOUBLE_EQ(inflight->value(), inflight_before);
}

TEST(PushWindowTest, FirstErrorLatchesNamesItsClockAndResetClears) {
  FakeSend fake;
  fake.Fail(1);
  fake.Fail(2);
  PushWindow<int> window(1, fake.Fn());
  ASSERT_TRUE(window.Push(0, 0).ok());
  Status st = window.Push(1, 1);
  if (st.ok()) st = window.Drain();
  ASSERT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_NE(st.message().find("clock 1"), std::string::npos)
      << st.message();
  // Latched: later pushes are refused without being sent, and the
  // latched error is the first one.
  const Status refused = window.Push(3, 3);
  EXPECT_TRUE(refused.IsFailedPrecondition());
  EXPECT_NE(refused.message().find("clock 1"), std::string::npos);
  EXPECT_TRUE(window.Drain().IsFailedPrecondition());
  EXPECT_EQ(fake.clocks(), (std::vector<int>{0, 1}));
  window.Reset();
  ASSERT_TRUE(window.Push(4, 4).ok());
  EXPECT_TRUE(window.Drain().ok());
  EXPECT_EQ(fake.clocks(), (std::vector<int>{0, 1, 4}));
}

TEST(PushWindowTest, DestructionDrainsEveryQueuedPush) {
  FakeSend fake;
  fake.SetGate(false);
  std::thread opener;
  {
    PushWindow<int> window(3, fake.Fn());
    for (int c = 0; c < 3; ++c) ASSERT_TRUE(window.Push(c, c).ok());
    // Open the gate only once the destructor is (about to be) waiting.
    opener = std::thread([&fake] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      fake.SetGate(true);
    });
  }
  opener.join();
  EXPECT_EQ(fake.clocks(), (std::vector<int>{0, 1, 2}));
}

TEST(PushWindowTest, HiddenSecondsIsSenderTimeTheOwnerNeverWaitedFor) {
  PushWindow<int> window(2, [](int, const int&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Status::OK();
  });
  ASSERT_TRUE(window.Push(0, 0).ok());
  ASSERT_TRUE(window.Push(1, 1).ok());
  // The owner "computes" past both sends before it drains, so it never
  // blocks and all of the sender's time counts as hidden.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(window.Drain().ok());
  EXPECT_GE(window.hidden_seconds(), 0.035);
}

/// Pushes that skip partitions: worker 0 only ever touches partition 0,
/// worker 1 alternates between partitions 1-2 and an empty update, and
/// worker 2 draws a random subset of partitions each clock.
std::vector<std::vector<SparseVector>> SkippingUpdates(
    const Partitioner& layout, int workers, int clocks) {
  Rng rng(2024);
  std::vector<std::vector<SparseVector>> updates(
      static_cast<size_t>(clocks));
  for (int c = 0; c < clocks; ++c) {
    for (int m = 0; m < workers; ++m) {
      std::vector<int64_t> keys;
      for (int p = 0; p < layout.num_partitions(); ++p) {
        const bool touch = m == 0   ? p == 0
                           : m == 1 ? c % 2 == 0 && (p == 1 || p == 2)
                                    : rng.NextBernoulli(0.5);
        if (!touch) continue;
        for (int64_t local = 0; local < layout.PartitionDim(p); ++local) {
          if (rng.NextBernoulli(0.3)) {
            keys.push_back(layout.GlobalIndex(p, local));
          }
        }
      }
      std::sort(keys.begin(), keys.end());
      SparseVector update;
      for (int64_t key : keys) update.PushBack(key, rng.NextDouble() - 0.5);
      updates[static_cast<size_t>(c)].push_back(std::move(update));
    }
  }
  return updates;
}

class PushPathParityTest : public testing::TestWithParam<RuleCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllRules, PushPathParityTest, testing::ValuesIn(kRuleCases),
    [](const testing::TestParamInfo<RuleCase>& info) {
      return info.param.name;
    });

// The same pushes, one after another, through ParameterServer::Push and
// through both clients at windows 0 and 1 (flushed after each push) —
// in process over the PS and over the bus — leave bitwise the same model
// and the same completed-version count in every partition, with and
// without the server's update filter, which every path applies before
// it splits. Every worker first pulls once, through the same PullDelta
// on every path, so each client has its layout before its first push.
TEST_P(PushPathParityTest, EveryPushPathAppliesTheSameUpdate) {
  constexpr int kWorkers = 3;
  constexpr int kClocks = 6;
  const std::unique_ptr<ConsolidationRule> rule = GetParam().make();
  for (const double epsilon : {0.0, 0.2}) {
    SCOPED_TRACE(epsilon);
    PsOptions opts;
    opts.num_servers = 2;
    opts.partitions_per_server = 2;
    opts.scheme = PartitionScheme::kRange;
    opts.sync = SyncPolicy::Asp();
    opts.update_filter_epsilon = epsilon;
    ParameterServer facade(48, kWorkers, *rule, opts);
    const std::vector<std::vector<SparseVector>> updates =
        SkippingUpdates(facade.partitioner(), kWorkers, kClocks);
    const auto update = [&](int c, int m) -> const SparseVector& {
      return updates[static_cast<size_t>(c)][static_cast<size_t>(m)];
    };
    const std::vector<int64_t> cold(
        static_cast<size_t>(facade.num_partitions()), kNoCachedTag);
    for (int m = 0; m < kWorkers; ++m) (void)facade.PullDelta(m, cold);
    for (int c = 0; c < kClocks; ++c) {
      for (int m = 0; m < kWorkers; ++m) facade.Push(m, c, update(c, m));
    }
    const std::vector<double> expected = facade.Snapshot();

    // Drives one client per worker against `ps` and compares the result.
    const auto check = [&](const ParameterServer& ps,
                           const std::vector<std::unique_ptr<PsClient>>&
                               clients) {
      std::vector<double> replica;
      for (const auto& client : clients) {
        ASSERT_TRUE(client->PullCached(&replica, nullptr).ok());
      }
      for (int c = 0; c < kClocks; ++c) {
        for (int m = 0; m < kWorkers; ++m) {
          PsClient& client = *clients[static_cast<size_t>(m)];
          ASSERT_TRUE(client.Push(c, update(c, m)).ok());
          ASSERT_TRUE(client.Flush().ok());
        }
      }
      const std::vector<double> got = ps.Snapshot();
      ASSERT_EQ(got.size(), expected.size());
      EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                            expected.size() * sizeof(double)),
                0);
      for (int p = 0; p < ps.num_partitions(); ++p) {
        EXPECT_EQ(ps.shard(p).CompletedVersionCount(),
                  facade.shard(p).CompletedVersionCount())
            << "partition " << p;
      }
    };
    for (int window = 0; window <= 1; ++window) {
      SCOPED_TRACE(window);
      {
        SCOPED_TRACE("in process");
        ParameterServer ps(48, kWorkers, *rule, opts);
        std::vector<std::unique_ptr<PsClient>> clients;
        for (int m = 0; m < kWorkers; ++m) {
          clients.push_back(std::make_unique<WorkerClient>(
              m, &ps, /*delta_pull=*/true, window));
        }
        check(ps, clients);
      }
      {
        SCOPED_TRACE("over the bus");
        ParameterServer ps(48, kWorkers, *rule, opts);
        MessageBus bus;
        PsService service(&ps, &bus, "ps");
        ASSERT_TRUE(service.status().ok());
        std::vector<std::unique_ptr<PsClient>> clients;
        for (int m = 0; m < kWorkers; ++m) {
          clients.push_back(std::make_unique<RpcWorkerClient>(
              m, &bus, "ps", RpcRetryPolicy(), window));
        }
        check(ps, clients);
      }
    }
  }
}

}  // namespace
}  // namespace hetps
