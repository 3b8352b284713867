// The observer-effect contract of the introspection plane: a scraper
// thread hammering kStatus / kMetricsScrape while workers push, pull and
// get evicted must (a) never trip TSan (this file runs under the tsan
// CI leg) and (b) see an internally consistent snapshot on every single
// scrape — cmin <= every live worker clock <= cmax, which is exactly
// what ValidateStatusJson enforces.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dyn_sgd.h"
#include "net/ps_service.h"
#include "net/serializer.h"
#include "ps/status.h"

namespace hetps {
namespace {

constexpr std::chrono::microseconds kRpcTimeout =
    std::chrono::seconds(5);

TEST(StatusScrapeTest, ScraperSeesConsistentWindowUnderChurn) {
  SspRule rule;
  PsOptions opts;
  opts.num_servers = 2;
  opts.partitions_per_server = 2;
  opts.sync = SyncPolicy::Ssp(3);
  MessageBus bus;
  constexpr int kGrinders = 3;
  constexpr int kWorkers = 12;
  ParameterServer ps(32, kWorkers, rule, opts);
  PsService service(&ps, &bus, "ps");
  ASSERT_TRUE(service.status().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> scrape_failures{0};
  std::atomic<int> scrapes{0};
  std::mutex err_mu;
  std::string first_error;

  auto note_failure = [&](const std::string& what) {
    scrape_failures.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(err_mu);
    if (first_error.empty()) first_error = what;
  };

  // Workers 0-2: a steady push/pull grind that keeps the clock frontier
  // moving (no admission gate — the scraper must stay consistent at any
  // staleness, not just within the SSP bound).
  auto grinder = [&](int m) {
    RpcWorkerClient client(m, &bus, "ps");
    int clock = 0;
    while (!stop.load(std::memory_order_acquire)) {
      (void)client.Push(clock++,
                        SparseVector({static_cast<int64_t>(m)}, {0.01}));
      std::vector<double> replica;
      int cmin = -1;
      (void)client.PullCached(&replica, &cmin);
    }
  };

  // Workers 3-11: the same grind, one after another, each evicted
  // (standing in for the liveness plane's sweep) after a few pushes —
  // churning exactly the membership state the snapshot reads. A worker
  // that has not started yet pins cmin at its clock 0.
  auto churner = [&] {
    for (int m = kGrinders; m < kWorkers; ++m) {
      RpcWorkerClient client(m, &bus, "ps");
      for (int clock = 0; clock < 5; ++clock) {
        if (stop.load(std::memory_order_acquire)) return;
        (void)client.Push(clock,
                          SparseVector({static_cast<int64_t>(m)}, {0.01}));
      }
      ps.EvictWorker(m);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  };

  // The scraper: raw kStatus and kMetricsScrape frames over the bus,
  // from an endpoint the service has never heard of (statusz tools are
  // not cluster members). Every status body must validate.
  auto scraper = [&] {
    int mode = 0;
    while (!stop.load(std::memory_order_acquire)) {
      BusReply reply = bus.BlockingCall(
          "scraper", "ps",
          {static_cast<uint8_t>(PsOpCode::kStatus)}, kRpcTimeout);
      if (!reply.ok()) {
        note_failure("kStatus rpc: " + reply.status.ToString());
        continue;
      }
      ByteReader reader(reply.payload);
      uint8_t code = 1;
      std::string body;
      if (!reader.ReadU8(&code).ok() || code != 0 ||
          !reader.ReadString(&body).ok()) {
        note_failure("kStatus: bad response framing");
        continue;
      }
      const Status valid = ValidateStatusJson(body);
      if (!valid.ok()) {
        note_failure(valid.ToString() + " in " + body);
      }
      // Alternate full Prometheus scrapes with cumulative deltas so both
      // kMetricsScrape modes run against the same churn.
      BusReply scrape = bus.BlockingCall(
          "scraper", "ps",
          {static_cast<uint8_t>(PsOpCode::kMetricsScrape),
           static_cast<uint8_t>(mode)},
          kRpcTimeout);
      mode = 1 - mode;
      if (!scrape.ok()) {
        note_failure("kMetricsScrape rpc: " + scrape.status.ToString());
        continue;
      }
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  for (int m = 0; m < kGrinders; ++m) threads.emplace_back(grinder, m);
  threads.emplace_back(churner);
  threads.emplace_back(scraper);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_GT(scrapes.load(), 10) << "scraper barely ran";
  EXPECT_LT(ps.num_live_workers(), kWorkers) << "membership never churned";
  EXPECT_EQ(scrape_failures.load(), 0) << first_error;
}

}  // namespace
}  // namespace hetps
