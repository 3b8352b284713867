// End-to-end check of the observability plane: a real threaded training
// run and a simulated run must both land metrics.json / trace.json
// artifacts carrying the promised signals (staleness quantiles,
// per-partition push/pull latency, compute-vs-wait breakdown, RPC fault
// counters) — the contract CI's obs-smoke job also verifies via the CLI.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "data/synthetic.h"
#include "engine/distributed_trainer.h"
#include "engine/threaded_trainer.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_reporter.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/cluster_config.h"
#include "sim/event_sim.h"

namespace hetps {
namespace {

Dataset SmallData() {
  SyntheticConfig cfg = UrlLikeConfig(0.05, 5);
  return GenerateSynthetic(cfg);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class ObsEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalMetrics().ResetValues();
    TraceRecorder::Global().Clear();
    TraceOptions topts;
    topts.buffer_kb_per_thread = 64;
    TraceRecorder::Global().Start(topts);
  }
  void TearDown() override {
    TraceRecorder::Global().Stop();
    std::remove(metrics_path_.c_str());
    std::remove(trace_path_.c_str());
  }

  void CheckArtifacts(const char* context) {
    const std::string metrics = Slurp(metrics_path_);
    const std::string trace = Slurp(trace_path_);
    ASSERT_FALSE(metrics.empty()) << context;
    ASSERT_FALSE(trace.empty()) << context;
    EXPECT_TRUE(ValidateMetricsJson(metrics).ok()) << context;
    EXPECT_TRUE(ValidateChromeTraceJson(trace).ok()) << context;
    // The promised signals, by key, inside the parsed document.
    auto doc = ParseJson(metrics);
    ASSERT_TRUE(doc.ok()) << context;
    const JsonValue* hists = doc.value().Find("metrics")->Find(
        "histograms");
    ASSERT_NE(hists, nullptr) << context;
    const JsonValue* staleness = hists->Find("worker.staleness{worker=0}");
    ASSERT_NE(staleness, nullptr) << context;
    EXPECT_NE(staleness->Find("p50"), nullptr) << context;
    EXPECT_NE(staleness->Find("p99"), nullptr) << context;
    EXPECT_NE(hists->Find("ps.push_piece_us{partition=0}"), nullptr)
        << context;
    EXPECT_NE(hists->Find("ps.pull_piece_us{partition=0}"), nullptr)
        << context;
    const JsonValue* gauges =
        doc.value().Find("metrics")->Find("gauges");
    ASSERT_NE(gauges, nullptr) << context;
    EXPECT_NE(gauges->Find("worker.compute_seconds{worker=0}"), nullptr)
        << context;
    EXPECT_NE(gauges->Find("worker.wait_seconds{worker=0}"), nullptr)
        << context;
  }

  // Unique per test: ctest runs each test as its own process in
  // parallel, so a shared fixed name would race across processes.
  static std::string UniquePath(const char* suffix) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "obs_e2e_" + info->name() + suffix;
  }
  std::string metrics_path_ = UniquePath("_metrics.json");
  std::string trace_path_ = UniquePath("_trace.json");
};

TEST_F(ObsEndToEndTest, ThreadedRunEmitsGoldenArtifacts) {
  const Dataset data = SmallData();
  auto rule = MakeConsolidationRule("dyn");
  auto loss = MakeLoss("logistic");
  FixedRate sched(0.3);

  RunReporterOptions opts;
  opts.metrics_out = metrics_path_;
  opts.trace_out = trace_path_;
  opts.report_every = 2;
  opts.run_info = {{"command", "test.threaded"}};
  RunReporter reporter(opts);

  ThreadedTrainerOptions topts;
  topts.num_workers = 3;
  topts.num_servers = 2;
  topts.max_clocks = 6;
  topts.eval_sample = 200;
  int epochs_seen = 0;
  topts.on_epoch = [&](int epoch) {
    ++epochs_seen;
    reporter.OnEpoch(epoch);
  };
  const ThreadedTrainResult r =
      TrainThreaded(data, *loss, sched, *rule, topts);
  EXPECT_EQ(epochs_seen, 6);
  ASSERT_EQ(r.worker_breakdown.size(), 3u);
  EXPECT_EQ(r.worker_breakdown[0].clocks_completed, 6);
  EXPECT_GT(r.worker_breakdown[0].compute_seconds, 0.0);
  ASSERT_TRUE(reporter.WriteFinal().ok());
  CheckArtifacts("threaded");
}

TEST_F(ObsEndToEndTest, SimulatedRunEmitsGoldenArtifactsInVirtualTime) {
  const Dataset data = SmallData();
  auto rule = MakeConsolidationRule("dyn");
  auto loss = MakeLoss("logistic");
  FixedRate sched(1.0);

  RunReporterOptions opts;
  opts.metrics_out = metrics_path_;
  opts.trace_out = trace_path_;
  opts.run_info = {{"command", "test.sim"}};
  RunReporter reporter(opts);

  SimOptions sopts;
  sopts.max_clocks = 8;
  sopts.stop_on_convergence = false;
  sopts.eval_sample = 200;
  int epochs_seen = 0;
  sopts.on_epoch = [&](int epoch) {
    ++epochs_seen;
    reporter.OnEpoch(epoch);
  };
  const ClusterConfig cluster =
      ClusterConfig::WithStragglers(4, 2, 2.0, 0.25);
  const SimResult r =
      RunSimulation(data, cluster, *rule, sched, *loss, sopts);
  EXPECT_EQ(epochs_seen, 8);
  ASSERT_EQ(r.worker_breakdown.size(), 4u);
  ASSERT_TRUE(reporter.WriteFinal().ok());
  CheckArtifacts("simulated");

  // Virtual-time events are tagged pid 1 so they sit on their own
  // Perfetto track group, distinct from wall-clock (pid 0) events.
  auto doc = ParseJson(Slurp(trace_path_));
  ASSERT_TRUE(doc.ok());
  const JsonValue* events = doc.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_sim_compute = false;
  for (const JsonValue& ev : events->array) {
    const JsonValue* name = ev.Find("name");
    const JsonValue* pid = ev.Find("pid");
    if (name != nullptr && pid != nullptr &&
        name->string_value == "worker.compute" &&
        pid->number_value == 1.0) {
      saw_sim_compute = true;
      const JsonValue* dur = ev.Find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GT(dur->number_value, 0.0);
    }
  }
  EXPECT_TRUE(saw_sim_compute);
}

TEST_F(ObsEndToEndTest, DistributedRunCarriesRpcCountersAndBreakdown) {
  const Dataset data = SmallData();
  auto rule = MakeConsolidationRule("dyn");
  auto loss = MakeLoss("logistic");
  FixedRate sched(0.3);

  DistributedTrainerOptions dopts;
  dopts.num_workers = 2;
  dopts.num_servers = 2;
  dopts.max_clocks = 4;
  dopts.eval_sample = 200;
  int epochs_seen = 0;
  dopts.on_epoch = [&](int) { ++epochs_seen; };
  auto result = TrainDistributed(data, *loss, sched, *rule, dopts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(epochs_seen, 4);
  ASSERT_EQ(result.value().worker_breakdown.size(), 2u);
  EXPECT_GT(result.value().worker_breakdown[0].compute_seconds, 0.0);
  EXPECT_GT(result.value().worker_breakdown[0].comm_seconds, 0.0);
  // The bus pushed its delivery/fault counters into the global registry.
  EXPECT_GT(GlobalMetrics().counter("bus.delivered")->value(), 0);
  const std::string json = GlobalMetrics().JsonSnapshot();
  EXPECT_NE(json.find("bus.fault.dropped_requests"), std::string::npos);
  EXPECT_NE(json.find("rpc.client_retries"), std::string::npos);
  EXPECT_NE(json.find("rpc.handle_us{op=push}"), std::string::npos);
  // The service sizes every request it dispatches and its response, so
  // each size histogram counts what all rpc.handle_us{op=*} count.
  const Result<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* histograms = doc.value().Find("histograms");
  ASSERT_NE(histograms, nullptr);
  double handled = 0.0;
  for (const auto& [key, h] : histograms->object) {
    if (key.rfind("rpc.handle_us{op=", 0) == 0) {
      handled += h.Find("count")->number_value;
    }
  }
  EXPECT_GT(handled, 0.0);
  for (const char* name : {"rpc.request_bytes", "rpc.response_bytes"}) {
    const JsonValue* h = histograms->Find(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_DOUBLE_EQ(h->Find("count")->number_value, handled) << name;
  }
}

TEST_F(ObsEndToEndTest, LossyKillRunStitchesAllFourArtifacts) {
  // The issue's acceptance scenario: a lossy bus plus a crash-stopped
  // worker must yield (a) one Chrome trace whose client bus.rpc span
  // flow-links to the server's rpc.handle span, (b) a valid
  // timeseries.json with per-window worker signals, and (c) a
  // flightrec.json whose kill → suspect → evict → reassign events
  // appear in causal (seq) order.
  SyntheticConfig cfg;
  cfg.num_examples = 400;
  cfg.num_features = 150;
  cfg.avg_nnz = 8;
  cfg.seed = 51;
  const Dataset data = GenerateSynthetic(cfg);
  auto rule = MakeConsolidationRule("dyn");
  auto loss = MakeLoss("logistic");
  FixedRate sched(0.5);

  const std::string timeseries_path = UniquePath("_timeseries.json");
  const std::string flightrec_path = UniquePath("_flightrec.json");

  RunReporterOptions opts;
  opts.metrics_out = metrics_path_;
  opts.trace_out = trace_path_;
  opts.timeseries_out = timeseries_path;
  opts.flightrec_out = flightrec_path;
  opts.run_info = {{"command", "test.lossy_kill"}};
  RunReporter reporter(opts);

  FlightRecorder::Global().Clear();
  FlightRecorder::Global().Start(4096);

  DistributedTrainerOptions dopts;
  dopts.num_workers = 4;
  dopts.num_servers = 2;
  dopts.max_clocks = 10;
  dopts.eval_sample = 400;
  dopts.sync = SyncPolicy::Ssp(3);
  dopts.fault_plan = FaultPlan::DropEverywhere(0.05, 77);
  dopts.fault_plan.fault_worker = 2;
  dopts.fault_plan.kill_at_clock = 3;
  dopts.heartbeat_timeout_seconds = 2.0;
  dopts.rpc_retry.timeout = std::chrono::milliseconds(10);
  dopts.rpc_retry.max_attempts = 40;
  dopts.rpc_retry.initial_backoff = std::chrono::microseconds(100);
  dopts.on_epoch = [&](int epoch) { reporter.OnEpoch(epoch); };

  auto result = TrainDistributed(data, *loss, sched, *rule, dopts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().evicted_workers.size(), 1u);
  EXPECT_EQ(result.value().evicted_workers[0], 2);
  ASSERT_TRUE(reporter.WriteFinal().ok());
  FlightRecorder::Global().Stop();

  // (a) Causal trace: at least one flow id appears on both a client
  // "s" half and a server "f" half — the cross-process stitch.
  const std::string trace_text = Slurp(trace_path_);
  ASSERT_TRUE(ValidateChromeTraceJson(trace_text).ok()) << trace_text;
  auto trace_doc = ParseJson(trace_text);
  ASSERT_TRUE(trace_doc.ok());
  std::set<std::string> start_ids, finish_ids;
  for (const JsonValue& ev :
       trace_doc.value().Find("traceEvents")->array) {
    const JsonValue* ph = ev.Find("ph");
    const JsonValue* id = ev.Find("id");
    if (ph == nullptr || id == nullptr) continue;
    if (ph->string_value == "s") start_ids.insert(id->string_value);
    if (ph->string_value == "f") finish_ids.insert(id->string_value);
  }
  bool linked = false;
  for (const std::string& id : start_ids) {
    if (finish_ids.count(id) != 0) linked = true;
  }
  EXPECT_TRUE(linked) << "no client->server flow link: " << start_ids.size()
                      << " starts, " << finish_ids.size() << " finishes";

  // (b) Windowed time series: one window per worker-0 clock plus the
  // final flush window, carrying per-worker wait histograms.
  const std::string ts_text = Slurp(timeseries_path);
  ASSERT_TRUE(ValidateTimeSeriesJson(ts_text).ok()) << ts_text;
  auto ts_doc = ParseJson(ts_text);
  ASSERT_TRUE(ts_doc.ok());
  const auto& windows = ts_doc.value().Find("windows")->array;
  ASSERT_GE(windows.size(), 3u);
  EXPECT_DOUBLE_EQ(windows.back().Find("epoch")->number_value, -1.0);
  bool saw_wait = false;
  for (const JsonValue& w : windows) {
    for (const auto& [key, value] : w.Find("histograms")->object) {
      if (key.rfind("worker.wait_us{worker=", 0) == 0) saw_wait = true;
    }
  }
  EXPECT_TRUE(saw_wait) << ts_text;

  // (c) Flight record: the postmortem sequence in causal order.
  const std::string fr_text = Slurp(flightrec_path);
  ASSERT_TRUE(ValidateFlightRecJson(fr_text).ok()) << fr_text;
  auto fr_doc = ParseJson(fr_text);
  ASSERT_TRUE(fr_doc.ok());
  double kill_seq = -1, suspect_seq = -1, evict_seq = -1,
         failover_seq = -1;
  for (const JsonValue& ev : fr_doc.value().Find("events")->array) {
    const std::string& kind = ev.Find("kind")->string_value;
    const double seq = ev.Find("seq")->number_value;
    if (kind == "fault.kill" && kill_seq < 0) kill_seq = seq;
    if (kind == "worker_suspected" && suspect_seq < 0) suspect_seq = seq;
    if (kind == "worker_evicted" && evict_seq < 0) evict_seq = seq;
    if (kind == "shard_failover" && failover_seq < 0) failover_seq = seq;
  }
  ASSERT_GE(kill_seq, 0.0) << fr_text;
  ASSERT_GE(suspect_seq, 0.0) << fr_text;
  ASSERT_GE(evict_seq, 0.0) << fr_text;
  ASSERT_GE(failover_seq, 0.0) << fr_text;
  EXPECT_LT(kill_seq, suspect_seq);
  EXPECT_LT(suspect_seq, evict_seq);
  EXPECT_LT(evict_seq, failover_seq);

  FlightRecorder::Global().Clear();
  std::remove(timeseries_path.c_str());
  std::remove(flightrec_path.c_str());
}

}  // namespace
}  // namespace hetps
