#include "net/message_bus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

namespace hetps {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

constexpr microseconds kForever{0};

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> v) {
  return std::vector<uint8_t>(v);
}

TEST(MessageBusTest, OneWayDelivery) {
  MessageBus bus;
  std::atomic<int> received{0};
  ASSERT_TRUE(bus.RegisterEndpoint("sink",
                                   [&](const Envelope& e) {
                                     received.fetch_add(
                                         static_cast<int>(e.payload[0]));
                                     return std::vector<uint8_t>{};
                                   })
                  .ok());
  ASSERT_TRUE(bus.Send("src", "sink", Bytes({5})).ok());
  ASSERT_TRUE(bus.Send("src", "sink", Bytes({7})).ok());
  bus.Flush();
  EXPECT_EQ(received.load(), 12);
  EXPECT_EQ(bus.delivered_count(), 2);
}

TEST(MessageBusTest, RequestResponse) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("echo",
                                   [](const Envelope& e) {
                                     std::vector<uint8_t> out = e.payload;
                                     out.push_back(99);
                                     return out;
                                   })
                  .ok());
  BusReply reply = bus.BlockingCall("client", "echo", Bytes({1, 2}),
                                    kForever);
  ASSERT_TRUE(reply.ok()) << reply.status.ToString();
  EXPECT_EQ(reply.payload, Bytes({1, 2, 99}));
  EXPECT_EQ(bus.pending_call_count(), 0u);
}

TEST(MessageBusTest, UnknownEndpointIsNotFound) {
  MessageBus bus;
  EXPECT_TRUE(bus.Send("a", "nope", {}).IsNotFound());
  EXPECT_TRUE(bus.Call("a", "nope", {}).status().IsNotFound());
}

TEST(MessageBusTest, DuplicateEndpointRejected) {
  MessageBus bus;
  auto handler = [](const Envelope&) { return std::vector<uint8_t>{}; };
  ASSERT_TRUE(bus.RegisterEndpoint("x", handler).ok());
  EXPECT_EQ(bus.RegisterEndpoint("x", handler).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(bus.RegisterEndpoint("y", nullptr).ok());
}

TEST(MessageBusTest, HandlersOfOneEndpointRunSequentially) {
  MessageBus bus;
  std::vector<int> order;  // guarded by sequential execution itself
  ASSERT_TRUE(bus.RegisterEndpoint("seq",
                                   [&](const Envelope& e) {
                                     order.push_back(e.payload[0]);
                                     return std::vector<uint8_t>{};
                                   })
                  .ok());
  for (uint8_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(bus.Send("src", "seq", Bytes({i})).ok());
  }
  bus.Flush();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);  // FIFO, no interleave
  }
}

TEST(MessageBusTest, EndpointsRunConcurrently) {
  // A request to endpoint B issued from inside endpoint A's handler must
  // complete (would deadlock if all endpoints shared one thread).
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("b",
                                   [](const Envelope&) {
                                     return Bytes({42});
                                   })
                  .ok());
  ASSERT_TRUE(bus.RegisterEndpoint(
                     "a",
                     [&](const Envelope&) {
                       BusReply r =
                           bus.BlockingCall("a", "b", {}, kForever);
                       return r.ok() ? r.payload
                                     : std::vector<uint8_t>{};
                     })
                  .ok());
  BusReply reply = bus.BlockingCall("client", "a", {}, kForever);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.payload, Bytes({42}));
}

TEST(MessageBusTest, ManyConcurrentCallers) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("sum",
                                   [](const Envelope& e) {
                                     std::vector<uint8_t> out = {
                                         static_cast<uint8_t>(
                                             e.payload[0] + 1)};
                                     return out;
                                   })
                  .ok());
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&bus, &ok, t] {
      for (uint8_t i = 0; i < 20; ++i) {
        BusReply r = bus.BlockingCall("c" + std::to_string(t), "sum",
                                      Bytes({i}), kForever);
        if (r.ok() && r.payload[0] == i + 1) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 8 * 20);
}

// --- Shutdown correctness ----------------------------------------------

TEST(MessageBusTest, ShutdownFailsPendingCalls) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("sink", [](const Envelope&) {
                   return std::vector<uint8_t>{};
                 }).ok());
  // Drop every request so the call can never be answered.
  FaultPlan plan;
  plan.drop_request_prob = 1.0;
  bus.SetFaultPlan(plan);
  auto call = bus.Call("c", "sink", Bytes({1}));
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(bus.pending_call_count(), 1u);
  bus.Shutdown();
  // The promise was failed, not broken: Await returns a clean error.
  BusReply reply = bus.Await(&call.value(), kForever);
  EXPECT_TRUE(reply.status.IsAborted()) << reply.status.ToString();
  EXPECT_EQ(bus.pending_call_count(), 0u);
  // Traffic after shutdown is refused, not lost silently.
  EXPECT_TRUE(bus.Send("c", "sink", {}).IsFailedPrecondition());
  EXPECT_TRUE(bus.Call("c", "sink", {}).status().IsFailedPrecondition());
}

TEST(MessageBusTest, DestructionResolvesOutstandingFutures) {
  // The future outlives the bus: the destructor must have resolved it
  // (no std::future_error / broken_promise).
  PendingCall call;
  {
    MessageBus bus;
    ASSERT_TRUE(bus.RegisterEndpoint("sink", [](const Envelope&) {
                     return std::vector<uint8_t>{};
                   }).ok());
    FaultPlan plan;
    plan.drop_request_prob = 1.0;
    bus.SetFaultPlan(plan);
    auto c = bus.Call("c", "sink", {});
    ASSERT_TRUE(c.ok());
    call = std::move(c.value());
  }
  BusReply reply = call.reply.get();
  EXPECT_TRUE(reply.status.IsAborted());
}

TEST(MessageBusTest, CallsRacingShutdownAlwaysResolve) {
  // Callers hammering the bus while another thread shuts it down must
  // each get a definite outcome: reply, Aborted, or refused call.
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("svc", [](const Envelope& e) {
                   return e.payload;
                 }).ok());
  std::atomic<int> resolved{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&bus, &resolved] {
      for (int i = 0; i < 200; ++i) {
        auto call = bus.Call("c", "svc", Bytes({7}));
        if (!call.ok()) {
          EXPECT_TRUE(call.status().IsFailedPrecondition());
          ++resolved;
          continue;
        }
        BusReply reply = bus.Await(&call.value(), kForever);
        EXPECT_TRUE(reply.ok() || reply.status.IsAborted())
            << reply.status.ToString();
        ++resolved;
      }
    });
  }
  std::this_thread::sleep_for(milliseconds(2));
  bus.Shutdown();
  for (auto& t : threads) t.join();
  EXPECT_EQ(resolved.load(), 4 * 200);
  EXPECT_EQ(bus.pending_call_count(), 0u);
}

TEST(MessageBusTest, ShutdownIsIdempotentAndRaceSafe) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("svc", [](const Envelope&) {
                   return std::vector<uint8_t>{};
                 }).ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&bus] { bus.Shutdown(); });
  }
  for (auto& t : threads) t.join();
  bus.Shutdown();  // and once more for good measure
  SUCCEED();
}

// --- Fault injection ---------------------------------------------------

TEST(MessageBusTest, AwaitTimesOutOnDroppedRequestAndReapsEntry) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("svc", [](const Envelope&) {
                   return Bytes({1});
                 }).ok());
  FaultPlan plan;
  plan.drop_request_prob = 1.0;
  bus.SetFaultPlan(plan);
  BusReply reply =
      bus.BlockingCall("c", "svc", Bytes({1}), milliseconds(2));
  EXPECT_TRUE(reply.status.IsDeadlineExceeded())
      << reply.status.ToString();
  EXPECT_EQ(bus.pending_call_count(), 0u);  // reaped, no leak
  EXPECT_EQ(bus.fault_stats().dropped_requests, 1);
  EXPECT_EQ(bus.delivered_count(), 0);
}

TEST(MessageBusTest, DroppedResponseStillRunsHandler) {
  MessageBus bus;
  std::atomic<int> handled{0};
  ASSERT_TRUE(bus.RegisterEndpoint("svc",
                                   [&](const Envelope&) {
                                     ++handled;
                                     return Bytes({1});
                                   })
                  .ok());
  FaultPlan plan;
  plan.drop_response_prob = 1.0;
  bus.SetFaultPlan(plan);
  BusReply reply =
      bus.BlockingCall("c", "svc", Bytes({1}), milliseconds(2));
  EXPECT_TRUE(reply.status.IsDeadlineExceeded());
  bus.Flush();
  // The at-least-once hazard: side effects happened, reply vanished.
  EXPECT_EQ(handled.load(), 1);
  EXPECT_EQ(bus.fault_stats().dropped_responses, 1);
  EXPECT_EQ(bus.pending_call_count(), 0u);
}

// The response-leg fault is drawn and counted for every reply, including
// one whose caller's deadline reaped the pending entry first.
TEST(MessageBusTest, DroppedResponseCountedAfterDeadline) {
  MessageBus bus;
  std::atomic<bool> release{false};
  ASSERT_TRUE(bus.RegisterEndpoint("svc",
                                   [&](const Envelope&) {
                                     while (!release.load()) {
                                       std::this_thread::sleep_for(
                                           microseconds(100));
                                     }
                                     return Bytes({1});
                                   })
                  .ok());
  FaultPlan plan;
  plan.drop_response_prob = 1.0;
  bus.SetFaultPlan(plan);
  BusReply reply =
      bus.BlockingCall("c", "svc", Bytes({1}), milliseconds(1));
  EXPECT_TRUE(reply.status.IsDeadlineExceeded());
  EXPECT_EQ(bus.pending_call_count(), 0u);  // reaped while handling
  release = true;
  bus.Flush();
  EXPECT_EQ(bus.fault_stats().dropped_responses, 1);
}

TEST(MessageBusTest, DuplicatedRequestDeliveredTwice) {
  MessageBus bus;
  std::atomic<int> handled{0};
  ASSERT_TRUE(bus.RegisterEndpoint("svc",
                                   [&](const Envelope&) {
                                     ++handled;
                                     return std::vector<uint8_t>{};
                                   })
                  .ok());
  FaultPlan plan;
  plan.duplicate_prob = 1.0;
  bus.SetFaultPlan(plan);
  ASSERT_TRUE(bus.Send("c", "svc", Bytes({1})).ok());
  bus.Flush();
  EXPECT_EQ(handled.load(), 2);
  EXPECT_EQ(bus.delivered_count(), 2);
  EXPECT_EQ(bus.fault_stats().duplicated_requests, 1);
}

TEST(MessageBusTest, DuplicatedCallResolvesOnceCleanly) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("svc", [](const Envelope& e) {
                   return e.payload;
                 }).ok());
  FaultPlan plan;
  plan.duplicate_prob = 1.0;
  bus.SetFaultPlan(plan);
  BusReply reply = bus.BlockingCall("c", "svc", Bytes({9}), kForever);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.payload, Bytes({9}));
  bus.Flush();  // second copy's reply is discarded without incident
  EXPECT_EQ(bus.pending_call_count(), 0u);
}

TEST(MessageBusTest, DelayedDeliveryStillArrives) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("svc", [](const Envelope& e) {
                   return e.payload;
                 }).ok());
  FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.delay_min_us = 100;
  plan.delay_max_us = 300;
  bus.SetFaultPlan(plan);
  BusReply reply = bus.BlockingCall("c", "svc", Bytes({5}), kForever);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.payload, Bytes({5}));
  EXPECT_EQ(bus.fault_stats().delayed_requests, 1);
}

TEST(MessageBusTest, FaultScheduleIsDeterministic) {
  auto run = [](uint64_t seed) {
    MessageBus bus;
    EXPECT_TRUE(bus.RegisterEndpoint("svc", [](const Envelope&) {
                     return std::vector<uint8_t>{};
                   }).ok());
    FaultPlan plan;
    plan.drop_request_prob = 0.3;
    plan.seed = seed;
    bus.SetFaultPlan(plan);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(bus.Send("c", "svc", {}).ok());
    }
    bus.Flush();
    return bus.fault_stats().dropped_requests;
  };
  const int64_t a = run(1234);
  EXPECT_GT(a, 0);
  EXPECT_LT(a, 100);
  EXPECT_EQ(a, run(1234));   // same seed, same schedule
  EXPECT_NE(a, run(99999));  // different seed, different schedule
}

TEST(MessageBusTest, LateReplyAfterDeadlineIsDiscarded) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("slow",
                                   [](const Envelope&) {
                                     std::this_thread::sleep_for(
                                         milliseconds(20));
                                     return Bytes({1});
                                   })
                  .ok());
  BusReply reply =
      bus.BlockingCall("c", "slow", Bytes({1}), milliseconds(1));
  EXPECT_TRUE(reply.status.IsDeadlineExceeded());
  bus.Flush();  // the late reply finds the entry reaped; no crash
  EXPECT_EQ(bus.pending_call_count(), 0u);
}

}  // namespace
}  // namespace hetps
