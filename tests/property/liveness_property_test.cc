// Seeded interleavings of the membership verbs — evict, clock report,
// push — over one ParameterServer and the ShardPlane built over it, once
// under each move policy. The server's clock table is the one record of
// who is live; the plane reads it and shows its policy live workers
// only. After every step:
//
//   (a) an evicted worker's entitlement is empty;
//   (b) the entitlements cover every example exactly once;
//   (c) no move the policy decides touches an evicted worker;
//   (d) cmin equals the minimum live clock and never goes down.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <memory>
#include <vector>

#include "baselines/flexrr.h"
#include "core/dyn_sgd.h"
#include "math/sparse_vector.h"
#include "ps/load_balancer.h"
#include "ps/parameter_server.h"
#include "ps/shard_plane.h"
#include "ps/status.h"
#include "util/rng.h"

namespace hetps {
namespace {

/// Passes every call on to `inner` and keeps the moves it decides.
class Recorded final : public StragglerMitigation {
 public:
  explicit Recorded(StragglerMitigation* inner) : inner_(inner) {}

  std::vector<ShardMove> OnClockReport(
      int worker, int clock, const std::vector<double>& clock_seconds,
      const std::vector<size_t>& shard_sizes) override {
    std::vector<ShardMove> moves =
        inner_->OnClockReport(worker, clock, clock_seconds, shard_sizes);
    decided.insert(decided.end(), moves.begin(), moves.end());
    return moves;
  }
  void OnWorkerEvicted(int worker) override {
    inner_->OnWorkerEvicted(worker);
  }

  std::vector<ShardMove> decided;

 private:
  StragglerMitigation* inner_;
};

enum class Policy { kBalancer, kFlexRr };

std::unique_ptr<StragglerMitigation> MakePolicy(Policy policy,
                                                int workers) {
  if (policy == Policy::kBalancer) {
    LoadBalancerOptions opts;
    opts.hysteresis = 1;
    opts.recovery_windows = 2;
    opts.reassign_fraction = 0.1;
    opts.min_shard_size = 2;
    return std::make_unique<LoadBalancer>(workers, opts);
  }
  FlexRrMitigation::Options opts;
  opts.reassign_fraction = 0.1;
  opts.min_shard_size = 2;
  return std::make_unique<FlexRrMitigation>(opts);
}

TEST(LivenessPropertyTest, StragglerDetectionRespectsMembership) {
  constexpr int kWorkers = 6;
  constexpr size_t kExamplesPerWorker = 40;
  constexpr size_t kExamples = kWorkers * kExamplesPerWorker;
  constexpr int kSteps = 300;
  // Each worker's typical clock time: worker 1 is the fastest, so its
  // eviction leaves the frozen time a policy must not see.
  const double kBaseSeconds[kWorkers] = {1.0, 0.5, 1.0, 2.0, 3.0, 1.2};
  for (const Policy which : {Policy::kBalancer, Policy::kFlexRr}) {
    SCOPED_TRACE(which == Policy::kBalancer ? "LoadBalancer" : "FlexRR");
    int64_t evictions = 0;
    int64_t moves_decided = 0;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      DynSgdRule rule;
      PsOptions o;
      o.num_servers = 2;
      o.sync = SyncPolicy::Asp();
      ParameterServer ps(16, kWorkers, rule, o);
      std::vector<DataShard> shards(kWorkers);
      for (size_t i = 0; i < kExamples; ++i) {
        shards[i / kExamplesPerWorker].example_indices.push_back(i);
      }
      const std::unique_ptr<StragglerMitigation> inner =
          MakePolicy(which, kWorkers);
      Recorded policy(inner.get());
      ShardPlane plane(&ps, shards, nullptr, &policy);
      const std::vector<int> everyone = {0, 1, 2, 3, 4, 5};

      Rng rng(seed * 977 + 13);
      std::vector<int> next_clock(kWorkers, 0);
      int prev_cmin = ps.cmin();
      for (int step = 0; step < kSteps; ++step) {
        const int w = static_cast<int>(rng.NextUint64(kWorkers));
        const uint64_t op = rng.NextUint64(50);
        if (op == 0) {
          // Refused for the last live worker: the table keeps one.
          if (ps.EvictWorker(w)) {
            plane.Evict(w, everyone);
            ++evictions;
          }
        } else if (op < 30) {
          const double seconds =
              kBaseSeconds[w] * rng.NextDouble(0.8, 1.25);
          plane.OnClockReport(w, next_clock[static_cast<size_t>(w)],
                              seconds);
        } else if (ps.IsWorkerLive(w)) {
          ps.Push(w, next_clock[static_cast<size_t>(w)]++,
                  SparseVector({w}, {0.1}));
        }

        // (c) moves are decided on reports only, which leave the record
        // as it was, so it is checked against the record now.
        for (const ShardMove& mv : policy.decided) {
          EXPECT_TRUE(ps.IsWorkerLive(mv.from) && ps.IsWorkerLive(mv.to))
              << "seed " << seed << " step " << step << ": move "
              << mv.from << " -> " << mv.to << " touches an evicted worker";
        }
        moves_decided += static_cast<int64_t>(policy.decided.size());
        policy.decided.clear();

        StatusSnapshot snap;
        ps.BuildStatusSnapshot(&snap);
        std::vector<size_t> all;
        int min_live = INT_MAX;
        for (const WorkerStatus& ws : snap.workers) {
          const std::vector<size_t> mine =
              plane.entitlement(ws.worker).example_indices;
          // (a)
          if (!ws.live) {
            EXPECT_TRUE(mine.empty())
                << "seed " << seed << " step " << step << ": evicted "
                << ws.worker << " still holds " << mine.size();
          } else {
            min_live = std::min(min_live, ws.clock);
          }
          all.insert(all.end(), mine.begin(), mine.end());
        }
        // (b)
        std::sort(all.begin(), all.end());
        ASSERT_EQ(all.size(), kExamples) << "seed " << seed << " step "
                                         << step;
        for (size_t i = 0; i < kExamples; ++i) {
          ASSERT_EQ(all[i], i) << "seed " << seed << " step " << step;
        }
        // (d)
        EXPECT_EQ(snap.cmin, min_live) << "seed " << seed << " step "
                                       << step;
        EXPECT_GE(snap.cmin, prev_cmin);
        prev_cmin = snap.cmin;
      }
    }
    // Not vacuous: members left, and the policy moved examples.
    EXPECT_GT(evictions, 12);
    EXPECT_GT(moves_decided, 50);
  }
}

}  // namespace
}  // namespace hetps
