// The push path end to end: the one push frame and its server-side
// validation/dedup, the background sender's window and error latch,
// read-your-writes drains, every push path applying the same update,
// and composition with the lossy bus, worker eviction and live
// rebalancing. All fixtures here are named PushPipeline* so CI's TSan
// leg picks them up (scripts/run_sanitizers.sh tsan 'PushPipeline|...').

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "data/synthetic.h"
#include "engine/distributed_trainer.h"
#include "engine/threaded_trainer.h"
#include "net/message_bus.h"
#include "net/ps_service.h"
#include "net/serializer.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace hetps {
namespace {

constexpr std::chrono::microseconds kForever{0};

struct PipelineHarness {
  explicit PipelineHarness(int workers, int64_t dim,
                           SyncPolicy sync = SyncPolicy::Asp(),
                           int partitions_per_server = 2)
      : rule(),
        ps(dim, workers, rule,
           [&] {
             PsOptions o;
             o.num_servers = 2;
             o.partitions_per_server = partitions_per_server;
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

/// Requests of `op` the services of this process have dispatched.
int64_t Handled(const char* op) {
  return GlobalMetrics().histogram("rpc.handle_us", {{"op", op}})->count();
}

uint8_t StatusByteOf(const BusReply& reply) {
  EXPECT_TRUE(reply.ok());
  ByteReader r(reply.payload);
  uint8_t code = 255;
  EXPECT_TRUE(r.ReadU8(&code).ok());
  return code;
}

// After the layout handshake (PullCached) a pipelined client ships the
// partition-split frame; the pieces land on the right shards and the
// clock table advances exactly once per push.
TEST(PushPipelineTest, ColumnarPushRoundtripAppliesOnce) {
  const int64_t pushes_before = Handled("push");
  PipelineHarness h(1, 16);
  RpcWorkerClient client(0, &h.bus, "ps", RpcRetryPolicy(),
                         /*push_window=*/1);
  std::vector<double> replica;
  int cp = 0;
  ASSERT_TRUE(client.PullCached(&replica, &cp).ok());  // layout handshake
  ASSERT_TRUE(client.Push(0, SparseVector({1, 9, 15}, {1.0, 2.0, 3.0})).ok());
  ASSERT_TRUE(client.Flush().ok());
  ASSERT_TRUE(client.PullCached(&replica, &cp).ok());
  EXPECT_DOUBLE_EQ(replica[1], 1.0);
  EXPECT_DOUBLE_EQ(replica[9], 2.0);
  EXPECT_DOUBLE_EQ(replica[15], 3.0);
  EXPECT_EQ(h.ps.cmin(), 1);  // the clock advanced exactly once
  h.bus.Flush();
  EXPECT_EQ(Handled("push") - pushes_before, 1);
}

// A push before any pull runs the layout handshake itself, at either
// window: one kLayout round trip, then the one push opcode.
TEST(PushPipelineTest, PushBeforeAnyPullHandshakesOnce) {
  for (int window = 0; window <= 1; ++window) {
    SCOPED_TRACE(window);
    const int64_t layouts_before = Handled("layout");
    const int64_t pushes_before = Handled("push");
    Counter* errors = GlobalMetrics().counter("rpc.errors");
    const int64_t errors_before = errors->value();
    PipelineHarness h(1, 8);
    RpcWorkerClient client(0, &h.bus, "ps", RpcRetryPolicy(), window);
    ASSERT_TRUE(client.Push(0, SparseVector({2, 6}, {1.0, -1.0})).ok());
    ASSERT_TRUE(client.Push(1, SparseVector({2}, {1.0})).ok());
    ASSERT_TRUE(client.Flush().ok());
    std::vector<double> replica;
    ASSERT_TRUE(client.PullCached(&replica, nullptr).ok());
    EXPECT_DOUBLE_EQ(replica[2], 2.0);
    EXPECT_DOUBLE_EQ(replica[6], -1.0);
    EXPECT_EQ(h.ps.cmin(), 2);
    h.bus.Flush();
    EXPECT_EQ(Handled("layout") - layouts_before, 1);
    EXPECT_EQ(Handled("push") - pushes_before, 2);
    EXPECT_EQ(errors->value() - errors_before, 0);
  }
}

std::vector<uint8_t> ColumnarFrame(const ParameterServer& ps, int worker,
                                   int clock, const SparseVector& update) {
  const std::vector<SparseVector> pieces =
      ps.partitioner().SplitByPartition(update);
  uint64_t kept = 0;
  for (const SparseVector& piece : pieces) {
    if (!piece.empty()) ++kept;
  }
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kPush));
  w.WriteI64(worker);
  w.WriteI64(clock);
  w.WriteU64(kept);
  for (size_t p = 0; p < pieces.size(); ++p) {
    if (pieces[p].empty()) continue;
    w.WriteI64(static_cast<int64_t>(p));
    w.WriteSparseVector(pieces[p]);
  }
  return w.TakeBuffer();
}

// At-least-once delivery: a retransmitted columnar frame (same worker,
// same clock) must ack OK without applying the update twice.
TEST(PushPipelineTest, DuplicateColumnarFrameIsDeduped) {
  // Read from the JSON snapshot metrics.json embeds, so the count is
  // known to reach a run's outputs.
  auto duplicates = [] {
    const Result<JsonValue> doc = ParseJson(GlobalMetrics().JsonSnapshot());
    EXPECT_TRUE(doc.ok());
    const JsonValue* c =
        doc.value().Find("counters")->Find("rpc.push_duplicates");
    return c == nullptr ? 0.0 : c->number_value;
  };
  const double duplicates_before = duplicates();
  PipelineHarness h(1, 16);
  const SparseVector update({3, 12}, {1.0, 2.0});
  const std::vector<uint8_t> frame = ColumnarFrame(h.ps, 0, 0, update);
  EXPECT_EQ(StatusByteOf(h.bus.BlockingCall("c", "ps", frame, kForever)),
            0);
  EXPECT_EQ(StatusByteOf(h.bus.BlockingCall("c", "ps", frame, kForever)),
            0);
  const std::vector<double> state = h.ps.PullFull(0);
  EXPECT_DOUBLE_EQ(state[3], 1.0);  // once, not twice
  EXPECT_DOUBLE_EQ(state[12], 2.0);
  EXPECT_EQ(h.ps.cmin(), 1);
  h.bus.Flush();
  EXPECT_DOUBLE_EQ(duplicates() - duplicates_before, 1.0);
}

// Malformed columnar frames are refused before anything applies: pieces
// out of partition order (which could double-apply a shard), piece
// indices beyond the partition's dim, and a piece count beyond the
// layout.
TEST(PushPipelineTest, MalformedColumnarFramesAreRejectedAtomically) {
  PipelineHarness h(1, 16);
  // Non-increasing partition ids.
  {
    ByteWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kPush));
    w.WriteI64(0);   // worker
    w.WriteI64(0);   // clock
    w.WriteU64(2);
    w.WriteI64(1);
    w.WriteSparseVector(SparseVector({0}, {1.0}));
    w.WriteI64(1);  // duplicate partition id
    w.WriteSparseVector(SparseVector({0}, {1.0}));
    EXPECT_NE(StatusByteOf(h.bus.BlockingCall("c", "ps", w.TakeBuffer(),
                                              kForever)),
              0);
  }
  // Piece index beyond the partition's local dim.
  {
    ByteWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kPush));
    w.WriteI64(0);
    w.WriteI64(0);
    w.WriteU64(1);
    w.WriteI64(0);
    w.WriteSparseVector(SparseVector({1000}, {1.0}));
    EXPECT_NE(StatusByteOf(h.bus.BlockingCall("c", "ps", w.TakeBuffer(),
                                              kForever)),
              0);
  }
  // More pieces than partitions.
  {
    ByteWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kPush));
    w.WriteI64(0);
    w.WriteI64(0);
    w.WriteU64(100);
    EXPECT_NE(StatusByteOf(h.bus.BlockingCall("c", "ps", w.TakeBuffer(),
                                              kForever)),
              0);
  }
  // Nothing leaked into the store or the clock table.
  for (double v : h.ps.PullFull(0)) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_EQ(h.ps.cmin(), 0);
}

// An all-zero update still has to advance the clock table (SSP counts
// clocks, not bytes) — the client ships an empty columnar frame rather
// than skipping the push.
TEST(PushPipelineTest, AllEmptyPushStillAdvancesClock) {
  PipelineHarness h(1, 16);
  RpcWorkerClient client(0, &h.bus, "ps", RpcRetryPolicy(),
                         /*push_window=*/1);
  std::vector<double> replica;
  int cp = 0;
  ASSERT_TRUE(client.PullCached(&replica, &cp).ok());
  ASSERT_TRUE(client.Push(0, SparseVector()).ok());
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(h.ps.cmin(), 1);
}

// The window bounds how far the owner can run ahead: inflight never
// exceeds push_window, and the peak gauge proves the pipeline actually
// overlapped.
TEST(PushPipelineTest, WindowBoundsInflightAndPeakGaugeRecords) {
  PipelineHarness h(1, 16);
  GlobalMetrics().gauge("push.inflight_peak")->Set(0.0);
  RpcWorkerClient client(0, &h.bus, "ps", RpcRetryPolicy(),
                         /*push_window=*/2);
  std::vector<double> replica;
  int cp = 0;
  ASSERT_TRUE(client.PullCached(&replica, &cp).ok());
  for (int c = 0; c < 32; ++c) {
    ASSERT_TRUE(client.Push(c, SparseVector({c % 16}, {0.01})).ok());
  }
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(h.ps.cmin(), 32);
  const double peak = GlobalMetrics().gauge("push.inflight_peak")->value();
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, 2.0);
  EXPECT_DOUBLE_EQ(GlobalMetrics().gauge("push.inflight")->value(), 0.0);
  EXPECT_GE(client.push_hidden_seconds(), 0.0);
}

// Read-your-writes: a pull must observe every update this worker already
// pushed, even ones still sitting in the sender queue.
TEST(PushPipelineTest, PullDrainsTheQueueFirst) {
  PipelineHarness h(1, 16);
  RpcWorkerClient client(0, &h.bus, "ps", RpcRetryPolicy(),
                         /*push_window=*/4);
  std::vector<double> replica;
  int cp = 0;
  ASSERT_TRUE(client.PullCached(&replica, &cp).ok());
  for (int c = 0; c < 8; ++c) {
    ASSERT_TRUE(client.Push(c, SparseVector({5}, {1.0})).ok());
  }
  // No explicit Flush: the pull itself must drain.
  ASSERT_TRUE(client.PullCached(&replica, &cp).ok());
  EXPECT_DOUBLE_EQ(replica[5], 8.0);
}

// Eviction mid-pipeline: the in-flight push fails with
// FailedPrecondition, the latch surfaces it on the owner thread (no
// hang), and Readmit clears the latch so the worker can resume.
TEST(PushPipelineTest, EvictionMidFlightSurfacesAndReadmitRecovers) {
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
  RpcWorkerClient c1(1, &bus, "ps", RpcRetryPolicy::NoRetry(),
                     /*push_window=*/1);
  ASSERT_TRUE(c0.Push(0, SparseVector({1}, {1.0})).ok());
  ASSERT_TRUE(c1.Push(0, SparseVector({2}, {1.0})).ok());
  ASSERT_TRUE(c1.Flush().ok());

  // Worker 1 goes silent past the timeout; worker 0's next request
  // sweeps it out.
  now = 10.0;
  ASSERT_TRUE(c0.Push(1, SparseVector({1}, {1.0})).ok());
  ASSERT_FALSE(ps.IsWorkerLive(1));

  // The zombie's pipelined push is accepted into the queue, fails
  // against the server, and the latched error surfaces on Flush with
  // the failing clock named.
  Status st = c1.Push(1, SparseVector({2}, {1.0}));
  if (st.ok()) st = c1.Flush();
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  // Once latched, new pushes are refused outright.
  EXPECT_TRUE(c1.Push(2, SparseVector({2}, {1.0})).IsFailedPrecondition());

  // Readmit drains the wreckage, resets the latch, and the pipeline
  // works again.
  ASSERT_TRUE(c1.Readmit(ps.cmin()).ok());
  ASSERT_TRUE(c1.Push(static_cast<int>(ps.cmin()), SparseVector({2}, {1.0}))
                  .ok());
  EXPECT_TRUE(c1.Flush().ok());
}

Dataset PipelineData() {
  SyntheticConfig cfg;
  cfg.num_examples = 400;
  cfg.num_features = 150;
  cfg.avg_nnz = 8;
  cfg.seed = 51;
  Dataset d = GenerateSynthetic(cfg);
  Rng rng(52);
  d.Shuffle(&rng);
  return d;
}

DistributedTrainerOptions PipelineOptions() {
  DistributedTrainerOptions opts;
  opts.num_workers = 3;
  opts.num_servers = 2;
  opts.max_clocks = 10;
  opts.eval_sample = 400;
  opts.sync = SyncPolicy::Ssp(2);
  opts.push_window = 1;
  opts.push_parallelism = 2;
  return opts;
}

// The pipelined trainer converges like the synchronous one.
TEST(PushPipelineTest, PipelinedTrainerConverges) {
  const Dataset d = PipelineData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;
  auto result = TrainDistributed(d, loss, sched, rule, PipelineOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result.value().final_objective, 0.5);
  EXPECT_EQ(result.value().next_clock, 10);
  // The pipeline overlapped at least some push time somewhere.
  double hidden = 0.0;
  for (const WorkerTimeBreakdown& b : result.value().worker_breakdown) {
    hidden += b.push_hidden_seconds;
  }
  EXPECT_GE(hidden, 0.0);
}

// Retry/dedup under the pipeline: a lossy bus (drops, delays,
// duplicates) with push_window 1 still converges — async push retries
// are deduped by (worker, clock) exactly like synchronous ones.
TEST(PushPipelineTest, PipelineComposesWithLossyBus) {
  const Dataset d = PipelineData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;
  DistributedTrainerOptions opts = PipelineOptions();
  opts.fault_plan.drop_request_prob = 0.10;
  opts.fault_plan.drop_response_prob = 0.05;
  opts.fault_plan.duplicate_prob = 0.05;
  opts.fault_plan.delay_prob = 0.10;
  opts.fault_plan.seed = 77;
  opts.rpc_retry.timeout = std::chrono::milliseconds(10);
  opts.rpc_retry.max_attempts = 40;
  opts.rpc_retry.initial_backoff = std::chrono::microseconds(100);

  auto result = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result.value().final_objective, 0.5);
  EXPECT_EQ(result.value().next_clock, 10);
  EXPECT_GT(result.value().faults.total(), 0);
  EXPECT_GT(result.value().rpc_retries, 0);
}

// Kill-a-worker under the pipeline: the victim's in-flight push
// resolves (FailedPrecondition via the latch, not a hang), the
// survivors complete, and the shard fails over.
TEST(PushPipelineTest, PipelineComposesWithEviction) {
  const Dataset d = PipelineData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;
  DistributedTrainerOptions opts = PipelineOptions();
  opts.num_workers = 4;
  opts.sync = SyncPolicy::Ssp(3);
  opts.fault_plan.fault_worker = 2;
  opts.fault_plan.kill_at_clock = 3;
  opts.heartbeat_timeout_seconds = 2.0;

  auto result = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().evicted_workers.size(), 1u);
  EXPECT_EQ(result.value().evicted_workers[0], 2);
  EXPECT_GT(result.value().examples_failed_over, 0);
  EXPECT_EQ(result.value().next_clock, 10);
}

// Live rebalancing under the pipeline: ReportClock rides alongside the
// async pushes and the balancer still sheds load off the injected
// straggler.
TEST(PushPipelineTest, PipelineComposesWithRebalance) {
  const Dataset d = PipelineData();
  LogisticLoss loss;
  FixedRate sched(0.5);
  DynSgdRule rule;
  DistributedTrainerOptions opts = PipelineOptions();
  opts.max_clocks = 14;
  opts.rebalance = true;
  opts.balancer.hysteresis = 2;
  opts.balancer.reassign_fraction = 0.10;
  opts.injected_compute_delay = {0.0, 0.0, 0.004};

  auto result = TrainDistributed(d, loss, sched, rule, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().examples_rebalanced, 0);
  EXPECT_EQ(result.value().next_clock, 14);
}

// With one worker the pipeline is a pure latency optimization: the
// drain-before-pull ordering means window 1 applies every update at the
// same point in the schedule as window 0, so the trained weights agree
// bit for bit.
TEST(PushPipelineTest, SingleWorkerWindowOneIsBitwiseIdentical) {
  const Dataset d = PipelineData();
  LogisticLoss loss;
  FixedRate sched(0.3);
  DynSgdRule rule;
  ThreadedTrainResult runs[2];
  for (int w = 0; w <= 1; ++w) {
    ThreadedTrainerOptions opts;
    opts.sync = SyncPolicy::Ssp(2);
    opts.max_clocks = 8;
    opts.num_workers = 1;
    opts.num_servers = 2;
    opts.seed = 7;
    opts.push_window = w;
    runs[w] = TrainThreaded(d, loss, sched, rule, opts);
  }
  ASSERT_EQ(runs[0].weights.size(), runs[1].weights.size());
  for (size_t i = 0; i < runs[0].weights.size(); ++i) {
    ASSERT_EQ(runs[0].weights[i], runs[1].weights[i]) << "index " << i;
  }
  EXPECT_EQ(runs[0].final_objective, runs[1].final_objective);
}

}  // namespace
}  // namespace hetps
