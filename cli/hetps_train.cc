// hetps_train — command-line front end for the library.
//
//   hetps_train train    --data=train.libsvm --model=out.model
//                        [--loss=logistic|hinge|squared] [--rule=ssp|con|dyn]
//                        [--protocol=bsp|asp|ssp] [--staleness=3]
//                        [--workers=4] [--servers=2] [--clocks=20]
//                        [--partitions=2] [--scheme=range|hash|rangehash]
//                        [--update_filter=0] [--lr=0.3] [--decay] [--l2=1e-4]
//                        [--batch-fraction=0.1] [--synthetic=url|ctr]
//                        [--push_window=0] [--push_parallelism=1]
//                        [--runtime=threaded|rpc]
//     rpc runtime only:  [--serve_status=/tmp/hetps.sock]
//                        [--heartbeat_timeout=0] [--evict_dead_workers=1]
//                        [--rebalance] [--compute_delay=0,0.05,...]
//                        (seconds per clock per worker: missing entries
//                        are 0, entries beyond --workers an error)
//   hetps_train evaluate --data=test.libsvm --model=in.model
//   hetps_train predict  --data=test.libsvm --model=in.model [--out=preds.txt]
//   hetps_train simulate [--hl=2] [--workers=30] [--servers=10]
//                        [--rule=dyn] [--staleness=3] [--lr=2.0]
//                        [--clocks=60] [--tolerance=0.4]
//                        [--partitions=1] [--scheme=range|hash|rangehash]
//                        [--update_filter=0] [--push_window=-1]
//                        [--kill_worker=-1] [--kill_at_clock=-1]
//                        [--heartbeat_timeout=0] [--evict_dead_workers=1]
//                        [--rebalance] [--straggler_threshold=1.2]
//                        [--rebalance_hysteresis=3]
//                        [--reassign_fraction=0.05]
//                        [--slow_worker=-1] [--slow_from_clock=0]
//                        [--slow_until_clock=0] [--slow_multiplier=1]
//   hetps_train check-obs --metrics=metrics.json [--trace=trace.json]
//                         [--timeseries=timeseries.json]
//                         [--flightrec=flightrec.json]
//                         [--status=status.json]
//   hetps_train inspect  [--timeseries=timeseries.json]
//                        [--metrics=metrics.json]
//                        [--flightrec=flightrec.json]   (at least one)
//   hetps_train dump-status --bus=/tmp/hetps.sock [--out=status.json]
//                           [--scrape_out=metrics.prom]
//   hetps_train top      --bus=/tmp/hetps.sock [--interval_ms=500]
//                        [--iters=0]
//   hetps_train obs-ctl  --bus=/tmp/hetps.sock [--trace=on|off]
//                        [--exemplars=on|off]
//                        [--slow_us=N [--slow_op=push|pull_delta|...|all]]
//                        [--flight_dump]
//
// The last three talk to a *running* `train --runtime=rpc
// --serve_status=SOCK` process over its introspection gateway:
// dump-status writes one hetps.status.v1 snapshot (and optionally a
// Prometheus scrape), top renders a refreshing cluster dashboard, and
// obs-ctl flips trace sampling / histogram exemplars / slow-request
// thresholds and triggers flight-recorder dumps in the live process.
//
// Observability (train and simulate): --metrics_out=metrics.json writes
// a metric snapshot (counters/gauges/histograms incl. staleness and
// compute-vs-wait breakdown), --trace_out=trace.json a Chrome trace
// loadable in chrome://tracing / Perfetto (with causal client->server
// flow arrows on RPCs). --timeseries_out=timeseries.json records
// windowed per-clock metric deltas (per-worker wait/compute over time);
// --flightrec_out=flightrec.json arms the black-box flight recorder
// (evictions, cmin repairs, faults, retries), dumped on eviction /
// abnormal exit and at end of run. --report_every=N re-writes
// metrics_out every N worker-0 clocks; --trace_buffer_kb bounds the
// per-thread trace ring; --flightrec_events bounds the flight ring.
// `check-obs` validates such files (CI smoke); `inspect` renders a
// human-readable heterogeneity report from them.
//
// `--synthetic=url|ctr` generates a dataset instead of reading --data,
// which makes the tool usable out of the box.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "data/libsvm_io.h"
#include "data/synthetic.h"
#include "engine/distributed_trainer.h"
#include "models/linear_model.h"
#include "net/ps_service.h"
#include "net/serializer.h"
#include "net/status_gateway.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_reporter.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "ps/status.h"
#include "sim/event_sim.h"
#include "util/flags.h"
#include "util/logging.h"

namespace hetps {
namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

Result<Dataset> LoadData(const FlagParser& flags) {
  const std::string synthetic = flags.GetString("synthetic", "");
  if (!synthetic.empty()) {
    const uint64_t seed = static_cast<uint64_t>(
        flags.GetInt("seed", 42).value());
    Dataset d = synthetic == "ctr"
                    ? GenerateSynthetic(CtrLikeConfig(1.0, seed))
                    : GenerateSynthetic(UrlLikeConfig(1.0, seed));
    Rng rng(seed + 1);
    d.Shuffle(&rng);
    return d;
  }
  const std::string path = flags.GetString("data", "");
  if (path.empty()) {
    return Status::InvalidArgument(
        "pass --data=<libsvm file> or --synthetic=url|ctr");
  }
  return ReadLibSvmFile(path);
}

/// Reads the observability flags, primes the global metric/trace state,
/// and hands back a RunReporter (null when no output was requested).
/// `run_info` annotates metrics.json's "run" object.
std::unique_ptr<RunReporter> MakeReporter(
    const FlagParser& flags,
    std::vector<std::pair<std::string, std::string>> run_info) {
  RunReporterOptions opts;
  opts.metrics_out = flags.GetString("metrics_out", "");
  opts.trace_out = flags.GetString("trace_out", "");
  opts.timeseries_out = flags.GetString("timeseries_out", "");
  opts.flightrec_out = flags.GetString("flightrec_out", "");
  opts.report_every =
      static_cast<int>(flags.GetInt("report_every", 0).value());
  const int trace_kb =
      static_cast<int>(flags.GetInt("trace_buffer_kb", 256).value());
  const int flightrec_events =
      static_cast<int>(flags.GetInt("flightrec_events", 4096).value());
  if (opts.metrics_out.empty() && opts.trace_out.empty() &&
      opts.timeseries_out.empty() && opts.flightrec_out.empty()) {
    return nullptr;
  }
  // One run per process invocation: start from clean global state so the
  // files describe this run only.
  GlobalMetrics().ResetValues();
  // Pre-register the RPC-layer fault/retry counters so metrics.json
  // always carries them (zero for runs that never touch the bus) —
  // dashboards can key on them unconditionally.
  GlobalMetrics().counter("bus.delivered");
  GlobalMetrics().counter("bus.fault.dropped_requests");
  GlobalMetrics().counter("bus.fault.dropped_responses");
  GlobalMetrics().counter("bus.fault.duplicated_requests");
  GlobalMetrics().counter("bus.fault.delayed_requests");
  GlobalMetrics().counter("rpc.client_retries");
  if (!opts.trace_out.empty()) {
    TraceRecorder::Global().Clear();
    TraceOptions trace_opts;
    trace_opts.buffer_kb_per_thread =
        trace_kb > 0 ? static_cast<size_t>(trace_kb) : 256;
    TraceRecorder::Global().Start(trace_opts);
  }
  if (!opts.flightrec_out.empty()) {
    FlightRecorder::Global().Clear();
    FlightRecorder::Global().Start(
        flightrec_events > 0 ? static_cast<size_t>(flightrec_events)
                             : 4096);
  }
  opts.run_info = std::move(run_info);
  return std::make_unique<RunReporter>(std::move(opts));
}

int FinishReport(RunReporter* reporter) {
  if (reporter == nullptr) return 0;
  const Status st = reporter->WriteFinal();
  TraceRecorder::Global().Stop();
  FlightRecorder::Global().Stop();
  if (!st.ok()) return Fail(st);
  if (!reporter->options().metrics_out.empty()) {
    std::printf("metrics written to %s\n",
                reporter->options().metrics_out.c_str());
  }
  if (!reporter->options().trace_out.empty()) {
    std::printf("trace written to %s\n",
                reporter->options().trace_out.c_str());
  }
  if (!reporter->options().timeseries_out.empty()) {
    std::printf("timeseries written to %s\n",
                reporter->options().timeseries_out.c_str());
  }
  if (!reporter->options().flightrec_out.empty()) {
    std::printf("flight record written to %s\n",
                reporter->options().flightrec_out.c_str());
  }
  return 0;
}

PartitionScheme ParseScheme(const FlagParser& flags, Status* st) {
  const std::string scheme = flags.GetString("scheme", "rangehash");
  if (scheme == "range") return PartitionScheme::kRange;
  if (scheme == "hash") return PartitionScheme::kHash;
  if (scheme == "rangehash") return PartitionScheme::kRangeHash;
  *st = Status::InvalidArgument("unknown --scheme: " + scheme);
  return PartitionScheme::kRangeHash;
}

SyncPolicy ParseSync(const FlagParser& flags, Status* st) {
  const std::string protocol = flags.GetString("protocol", "ssp");
  const int s =
      static_cast<int>(flags.GetInt("staleness", 3).value());
  if (protocol == "bsp") return SyncPolicy::Bsp();
  if (protocol == "asp") return SyncPolicy::Asp();
  if (protocol == "ssp") return SyncPolicy::Ssp(s);
  *st = Status::InvalidArgument("unknown --protocol: " + protocol);
  return SyncPolicy::Ssp(s);
}

/// Parses "--compute_delay=0,0.05,0.1" into per-worker seconds.
Result<std::vector<double>> ParseDelayList(const std::string& text) {
  std::vector<double> delays;
  if (text.empty()) return delays;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || v < 0.0) {
      return Status::InvalidArgument("bad --compute_delay entry: " + item);
    }
    delays.push_back(v);
  }
  return delays;
}

/// Writes `model` to --model, when that flag is set.
Status SaveModelFlag(const FlagParser& flags, const LinearModel& model) {
  const std::string out = flags.GetString("model", "");
  if (out.empty()) return Status::OK();
  HETPS_RETURN_NOT_OK(model.Save(out));
  std::printf("model written to %s\n", out.c_str());
  return Status::OK();
}

/// `train --runtime=rpc`: the fully-distributed execution path — worker
/// threads talk to the PS service over the serialized message bus, with
/// the liveness / rebalancing planes and (via --serve_status) the live
/// introspection gateway.
int RunTrainRpc(const FlagParser& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());

  DistributedTrainerOptions opts;
  Status sync_st;
  opts.sync = ParseSync(flags, &sync_st);
  if (!sync_st.ok()) return Fail(sync_st);
  opts.max_clocks = static_cast<int>(flags.GetInt("clocks", 20).value());
  opts.l2 = flags.GetDouble("l2", 1e-4).value();
  opts.batch_fraction = flags.GetDouble("batch-fraction", 0.1).value();
  opts.num_workers =
      static_cast<int>(flags.GetInt("workers", 4).value());
  opts.num_servers =
      static_cast<int>(flags.GetInt("servers", 2).value());
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 42).value());
  opts.push_window =
      static_cast<int>(flags.GetInt("push_window", 0).value());
  opts.push_parallelism =
      static_cast<int>(flags.GetInt("push_parallelism", 1).value());
  opts.heartbeat_timeout_seconds =
      flags.GetDouble("heartbeat_timeout", 0.0).value();
  opts.evict_dead_workers = flags.GetBool("evict_dead_workers", true);
  opts.rebalance = flags.GetBool("rebalance", false);
  opts.balancer.straggler_threshold =
      flags.GetDouble("straggler_threshold", 1.2).value();
  opts.balancer.hysteresis = static_cast<int>(
      flags.GetInt("rebalance_hysteresis", 3).value());
  opts.balancer.reassign_fraction =
      flags.GetDouble("reassign_fraction", 0.05).value();
  auto delays = ParseDelayList(flags.GetString("compute_delay", ""));
  if (!delays.ok()) return Fail(delays.status());
  opts.injected_compute_delay = std::move(delays.value());
  opts.serve_status_path = flags.GetString("serve_status", "");

  auto rule = MakeConsolidationRule(flags.GetString("rule", "dyn"));
  auto loss = MakeLoss(flags.GetString("loss", "logistic"));
  const double lr = flags.GetDouble("lr", 0.3).value();
  std::unique_ptr<LearningRateSchedule> sched;
  if (flags.GetBool("decay", false)) {
    sched = std::make_unique<DecayedRate>(lr);
  } else {
    sched = std::make_unique<FixedRate>(lr);
  }

  std::unique_ptr<RunReporter> reporter = MakeReporter(
      flags, {{"command", "train"},
              {"runtime", "rpc"},
              {"rule", flags.GetString("rule", "dyn")},
              {"protocol", flags.GetString("protocol", "ssp")},
              {"workers", std::to_string(opts.num_workers)},
              {"servers", std::to_string(opts.num_servers)},
              {"clocks", std::to_string(opts.max_clocks)}});
  if (reporter != nullptr) {
    RunReporter* rep = reporter.get();
    opts.on_epoch = [rep](int epoch) { rep->OnEpoch(epoch); };
  }

  auto result =
      TrainDistributed(data.value(), *loss, *sched, *rule, opts);
  if (!result.ok()) return Fail(result.status());
  const DistributedTrainResult& r = result.value();
  std::printf("trained (rpc runtime): objective %.4f over %d clocks, "
              "%lld messages, %lld retries\n",
              r.final_objective, opts.max_clocks,
              static_cast<long long>(r.messages),
              static_cast<long long>(r.rpc_retries));
  if (!r.evicted_workers.empty()) {
    std::printf("liveness: evicted=%zu failed_over_examples=%lld\n",
                r.evicted_workers.size(),
                static_cast<long long>(r.examples_failed_over));
  }
  if (opts.rebalance) {
    std::printf("rebalance: examples_moved=%lld examples_returned=%lld "
                "migrations=%lld\n",
                static_cast<long long>(r.examples_rebalanced),
                static_cast<long long>(r.examples_returned),
                static_cast<long long>(r.lb_migrations));
  }
  const Status saved = SaveModelFlag(
      flags, LinearModel(r.weights, flags.GetString("loss", "logistic"),
                         opts.l2));
  if (!saved.ok()) return Fail(saved);
  return FinishReport(reporter.get());
}

int RunTrain(const FlagParser& flags) {
  const std::string runtime = flags.GetString("runtime", "threaded");
  if (runtime == "rpc") return RunTrainRpc(flags);
  if (runtime != "threaded") {
    return Fail(Status::InvalidArgument("unknown --runtime: " + runtime));
  }
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());

  LinearModelConfig cfg;
  cfg.loss = flags.GetString("loss", "logistic");
  cfg.rule = flags.GetString("rule", "dyn");
  Status sync_st;
  cfg.sync = ParseSync(flags, &sync_st);
  if (!sync_st.ok()) return Fail(sync_st);
  cfg.num_workers =
      static_cast<int>(flags.GetInt("workers", 4).value());
  cfg.num_servers =
      static_cast<int>(flags.GetInt("servers", 2).value());
  cfg.partitions_per_server =
      static_cast<int>(flags.GetInt("partitions", 2).value());
  Status scheme_st;
  cfg.scheme = ParseScheme(flags, &scheme_st);
  if (!scheme_st.ok()) return Fail(scheme_st);
  cfg.max_clocks = static_cast<int>(flags.GetInt("clocks", 20).value());
  cfg.learning_rate = flags.GetDouble("lr", 0.3).value();
  cfg.decayed_rate = flags.GetBool("decay", false);
  cfg.l2 = flags.GetDouble("l2", 1e-4).value();
  cfg.batch_fraction =
      flags.GetDouble("batch-fraction", 0.1).value();
  cfg.update_filter_epsilon =
      flags.GetDouble("update_filter", 0.0).value();
  // Push pipeline: --push_window=N overlaps pushes with compute
  // (0 = synchronous), --push_parallelism fans push application across
  // server shards (1 = serial, 0 = auto).
  cfg.push_window =
      static_cast<int>(flags.GetInt("push_window", 0).value());
  cfg.push_parallelism =
      static_cast<int>(flags.GetInt("push_parallelism", 1).value());
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 42).value());

  std::unique_ptr<RunReporter> reporter = MakeReporter(
      flags, {{"command", "train"},
              {"loss", cfg.loss},
              {"rule", cfg.rule},
              {"protocol", flags.GetString("protocol", "ssp")},
              {"workers", std::to_string(cfg.num_workers)},
              {"servers", std::to_string(cfg.num_servers)},
              {"clocks", std::to_string(cfg.max_clocks)}});
  if (reporter != nullptr) {
    RunReporter* rep = reporter.get();
    cfg.on_epoch = [rep](int epoch) { rep->OnEpoch(epoch); };
  }

  auto model = LinearModel::Train(data.value(), cfg);
  if (!model.ok()) return Fail(model.status());
  std::printf("trained %s/%s in %.2fs wall: objective %.4f, accuracy "
              "%.3f\n",
              cfg.loss.c_str(), cfg.rule.c_str(),
              model.value().train_stats().wall_seconds,
              model.value().Objective(data.value()),
              model.value().Accuracy(data.value()));
  const Status saved = SaveModelFlag(flags, model.value());
  if (!saved.ok()) return Fail(saved);
  return FinishReport(reporter.get());
}

Result<LinearModel> LoadModel(const FlagParser& flags) {
  const std::string path = flags.GetString("model", "");
  if (path.empty()) {
    return Status::InvalidArgument("pass --model=<file>");
  }
  return LinearModel::Load(path);
}

int RunEvaluate(const FlagParser& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  auto model = LoadModel(flags);
  if (!model.ok()) return Fail(model.status());
  std::printf("objective %.4f, accuracy %.3f over %zu examples\n",
              model.value().Objective(data.value()),
              model.value().Accuracy(data.value()),
              data.value().size());
  return 0;
}

int RunPredict(const FlagParser& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  auto model = LoadModel(flags);
  if (!model.ok()) return Fail(model.status());
  const std::string out_path = flags.GetString("out", "");
  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      return Fail(Status::IOError("cannot open " + out_path));
    }
  }
  std::ostream& os = out_path.empty() ? std::cout : file;
  for (size_t i = 0; i < data.value().size(); ++i) {
    os << model.value().Predict(data.value().example(i).features)
       << '\n';
  }
  return 0;
}

int RunSimulate(const FlagParser& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  const double hl = flags.GetDouble("hl", 2.0).value();
  const int workers =
      static_cast<int>(flags.GetInt("workers", 30).value());
  const int servers =
      static_cast<int>(flags.GetInt("servers", 10).value());
  auto rule =
      MakeConsolidationRule(flags.GetString("rule", "dyn"));
  auto loss = MakeLoss(flags.GetString("loss", "logistic"));
  FixedRate sched(flags.GetDouble("lr", 2.0).value());
  SimOptions options;
  Status sync_st;
  options.sync = ParseSync(flags, &sync_st);
  if (!sync_st.ok()) return Fail(sync_st);
  options.max_clocks =
      static_cast<int>(flags.GetInt("clocks", 60).value());
  options.partitions_per_server =
      static_cast<int>(flags.GetInt("partitions", 1).value());
  Status scheme_st;
  options.scheme = ParseScheme(flags, &scheme_st);
  if (!scheme_st.ok()) return Fail(scheme_st);
  options.update_filter_epsilon =
      flags.GetDouble("update_filter", 0.0).value();
  // Push pipelining model: -1 = legacy unbounded overlap, 0 =
  // synchronous, >= 1 = bounded window (see SimOptions::push_window).
  options.push_window =
      static_cast<int>(flags.GetInt("push_window", -1).value());
  options.objective_tolerance =
      flags.GetDouble("tolerance", 0.4).value();
  options.l2 = flags.GetDouble("l2", 1e-4).value();
  // Liveness / failure injection (see DESIGN.md "Failure model & worker
  // eviction"): --kill_worker/--kill_at_clock crash-stop one worker,
  // --heartbeat_timeout arms eviction, --evict_dead_workers=0 shows the
  // stall instead.
  options.kill_worker =
      static_cast<int>(flags.GetInt("kill_worker", -1).value());
  if (options.kill_worker >= workers) {
    return Fail(Status::InvalidArgument(
        "--kill_worker=" + std::to_string(options.kill_worker) +
        " is out of range for --workers=" + std::to_string(workers)));
  }
  options.kill_at_clock =
      static_cast<int>(flags.GetInt("kill_at_clock", -1).value());
  options.heartbeat_timeout_seconds =
      flags.GetDouble("heartbeat_timeout", 0.0).value();
  options.evict_dead_workers = flags.GetBool("evict_dead_workers", true);
  // Load-balancing plane: --rebalance migrates examples off persistent
  // stragglers; --slow_worker/--slow_multiplier inject a transient
  // congestion episode to chase (see EXPERIMENTS.md).
  options.rebalance = flags.GetBool("rebalance", false);
  options.balancer.straggler_threshold =
      flags.GetDouble("straggler_threshold", 1.2).value();
  options.balancer.hysteresis = static_cast<int>(
      flags.GetInt("rebalance_hysteresis", 3).value());
  options.balancer.reassign_fraction =
      flags.GetDouble("reassign_fraction", 0.05).value();
  options.slow_worker =
      static_cast<int>(flags.GetInt("slow_worker", -1).value());
  if (options.slow_worker >= workers) {
    return Fail(Status::InvalidArgument(
        "--slow_worker=" + std::to_string(options.slow_worker) +
        " is out of range for --workers=" + std::to_string(workers)));
  }
  options.slow_from_clock =
      static_cast<int>(flags.GetInt("slow_from_clock", 0).value());
  options.slow_until_clock =
      static_cast<int>(flags.GetInt("slow_until_clock", 0).value());
  options.slow_multiplier =
      flags.GetDouble("slow_multiplier", 1.0).value();
  if (options.kill_worker >= 0 &&
      options.heartbeat_timeout_seconds <= 0.0) {
    // A kill without the liveness plane stalls until max_sim_seconds;
    // bound the demonstration.
    options.max_sim_seconds =
        flags.GetDouble("max_sim_seconds", 600.0).value();
  }
  const ClusterConfig cluster =
      ClusterConfig::WithStragglers(workers, servers, hl, 0.2);
  std::unique_ptr<RunReporter> reporter = MakeReporter(
      flags, {{"command", "simulate"},
              {"rule", flags.GetString("rule", "dyn")},
              {"protocol", flags.GetString("protocol", "ssp")},
              {"workers", std::to_string(workers)},
              {"servers", std::to_string(servers)},
              {"hl", std::to_string(hl)}});
  if (reporter != nullptr) {
    RunReporter* rep = reporter.get();
    options.on_epoch = [rep](int epoch) { rep->OnEpoch(epoch); };
    if (rep->timeseries() != nullptr) {
      // The simulator stamps windows with virtual time (SnapshotAt);
      // the reporter must not also close wall-clock windows.
      options.timeseries = rep->timeseries();
      rep->UseExternalTimeSeriesClock();
    }
  }
  const SimResult r = RunSimulation(data.value(), cluster, *rule, sched,
                                    *loss, options);
  std::printf("%s\n", r.Summary().c_str());
  if (options.kill_worker >= 0 || r.workers_evicted > 0) {
    std::printf(
        "liveness: evicted=%d failed_over_examples=%lld "
        "blocked_at_end=%d\n",
        r.workers_evicted,
        static_cast<long long>(r.examples_failed_over),
        r.workers_blocked_at_end);
  }
  if (options.rebalance) {
    std::printf(
        "rebalance: examples_moved=%lld examples_returned=%lld "
        "migrations=%lld\n",
        static_cast<long long>(r.examples_rebalanced),
        static_cast<long long>(r.examples_returned),
        static_cast<long long>(r.rebalance_migrations));
  }
  return FinishReport(reporter.get());
}

// ---- Live-introspection clients (dump-status / top / obs-ctl) ----

/// One gateway round trip decoded through the PsService response
/// framing: status byte first, then a length-prefixed string — the
/// JSON/Prometheus body on success, the error message on failure.
/// (kObsControl acks are a bare status byte; the missing body reads as
/// empty.)
Result<std::string> GatewayCall(GatewayClient* client,
                                const std::vector<uint8_t>& request) {
  auto raw = client->Call(request);
  if (!raw.ok()) return raw.status();
  ByteReader reader(raw.value());
  uint8_t code = 0;
  HETPS_RETURN_NOT_OK(reader.ReadU8(&code));
  std::string body;
  (void)reader.ReadString(&body);
  if (code != 0) {
    return Status(static_cast<StatusCode>(code),
                  body.empty() ? "remote error" : body);
  }
  return body;
}

Status ConnectGateway(const FlagParser& flags, GatewayClient* client) {
  const std::string path = flags.GetString("bus", "");
  if (path.empty()) {
    return Status::InvalidArgument(
        "pass --bus=<socket path> (the --serve_status= path of the "
        "running train)");
  }
  return client->Connect(path);
}

/// `dump-status`: one kStatus snapshot from a live run, printed or
/// written to --out; --scrape_out additionally pulls a full Prometheus
/// scrape (kMetricsScrape mode 0) with any armed exemplars inline.
int RunDumpStatus(const FlagParser& flags) {
  GatewayClient client;
  Status conn = ConnectGateway(flags, &client);
  if (!conn.ok()) return Fail(conn);
  auto status_json =
      GatewayCall(&client, {static_cast<uint8_t>(PsOpCode::kStatus)});
  if (!status_json.ok()) return Fail(status_json.status());
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::printf("%s\n", status_json.value().c_str());
  } else {
    std::ofstream file(out);
    if (!file) return Fail(Status::IOError("cannot open " + out));
    file << status_json.value() << '\n';
    std::printf("status written to %s\n", out.c_str());
  }
  const std::string scrape_out = flags.GetString("scrape_out", "");
  if (!scrape_out.empty()) {
    auto scrape = GatewayCall(
        &client, {static_cast<uint8_t>(PsOpCode::kMetricsScrape), 0});
    if (!scrape.ok()) return Fail(scrape.status());
    std::ofstream file(scrape_out);
    if (!file) return Fail(Status::IOError("cannot open " + scrape_out));
    file << scrape.value();
    std::printf("scrape written to %s\n", scrape_out.c_str());
  }
  return 0;
}

/// `obs-ctl`: flips live observability knobs in a running train —
/// trace sampling, histogram exemplars, per-opcode slow-request
/// thresholds, on-demand flight-recorder dumps.
int RunObsCtl(const FlagParser& flags) {
  GatewayClient client;
  Status conn = ConnectGateway(flags, &client);
  if (!conn.ok()) return Fail(conn);
  bool did_anything = false;
  auto send = [&](const std::vector<uint8_t>& request,
                  const char* what) -> int {
    auto ack = GatewayCall(&client, request);
    if (!ack.ok()) return Fail(ack.status());
    std::printf("%s: ok\n", what);
    did_anything = true;
    return 0;
  };
  const uint8_t kCtl = static_cast<uint8_t>(PsOpCode::kObsControl);
  const std::string trace = flags.GetString("trace", "");
  if (!trace.empty()) {
    if (trace != "on" && trace != "off") {
      return Fail(Status::InvalidArgument("--trace must be on|off"));
    }
    const int rc = send({kCtl, 1, trace == "on" ? uint8_t{1} : uint8_t{0}},
                        trace == "on" ? "trace on" : "trace off");
    if (rc != 0) return rc;
  }
  const std::string exemplars = flags.GetString("exemplars", "");
  if (!exemplars.empty()) {
    if (exemplars != "on" && exemplars != "off") {
      return Fail(Status::InvalidArgument("--exemplars must be on|off"));
    }
    const int rc =
        send({kCtl, 2, exemplars == "on" ? uint8_t{1} : uint8_t{0}},
             exemplars == "on" ? "exemplars on" : "exemplars off");
    if (rc != 0) return rc;
  }
  const int64_t slow_us = flags.GetInt("slow_us", -1).value();
  if (slow_us >= 0) {
    const std::string op_name = flags.GetString("slow_op", "all");
    uint8_t op = 0;  // the service's "all opcodes" wildcard
    if (op_name != "all") {
      const std::optional<PsOpCode> named = PsOpCodeFromName(op_name);
      if (!named.has_value()) {
        return Fail(Status::InvalidArgument("unknown --slow_op: " + op_name));
      }
      op = static_cast<uint8_t>(*named);
    }
    ByteWriter w;
    w.WriteU8(kCtl);
    w.WriteU8(3);
    w.WriteU8(op);
    w.WriteI64(slow_us);
    const int rc = send(w.TakeBuffer(),
                        ("slow threshold (" + op_name + ")").c_str());
    if (rc != 0) return rc;
  }
  if (flags.GetBool("flight_dump", false)) {
    const int rc = send({kCtl, 4}, "flight dump");
    if (rc != 0) return rc;
  }
  if (!did_anything) {
    return Fail(Status::InvalidArgument(
        "pass at least one of --trace= / --exemplars= / --slow_us= / "
        "--flight_dump"));
  }
  return 0;
}

double NumField(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr ? v->number_value : 0.0;
}

/// Renders one hetps.status.v1 snapshot as the `top` dashboard frame.
void RenderTopFrame(const JsonValue& doc, int iter) {
  const double cmin = NumField(doc, "cmin");
  const double cmax = NumField(doc, "cmax");
  const JsonValue* source = doc.Find("source");
  std::printf("hetps top — source=%s  t=%.1fs  frame %d\n",
              source != nullptr && source->is_string()
                  ? source->string_value.c_str()
                  : "?",
              NumField(doc, "ts_us") / 1e6, iter);
  std::printf(
      "clocks: cmin=%.0f cmax=%.0f  live %.0f/%.0f  blocked=%.0f  "
      "pushes=%.0f\n",
      cmin, cmax, NumField(doc, "num_live_workers"),
      NumField(doc, "num_workers"), NumField(doc, "blocked_workers"),
      NumField(doc, "total_pushes"));
  const JsonValue* push = doc.Find("push");
  if (push != nullptr && push->is_object()) {
    const double window = NumField(*push, "window");
    const double inflight = NumField(*push, "inflight");
    if (window >= 1.0) {
      // Occupied window slots — how much push transfer the pipeline is
      // currently hiding behind compute.
      std::printf("push: window=%.0f inflight=%.0f (overlap %.0f%%)\n",
                  window, inflight, 100.0 * inflight / window);
    } else {
      std::printf("push: synchronous (window=%.0f)\n", window);
    }
  }
  const JsonValue* reb = doc.Find("rebalance");
  if (reb != nullptr && reb->is_object()) {
    std::printf(
        "rebalance: moved=%.0f returned=%.0f migrations=%.0f\n",
        NumField(*reb, "examples_moved"),
        NumField(*reb, "examples_returned"), NumField(*reb, "migrations"));
  }
  const JsonValue* workers = doc.Find("workers");
  if (workers == nullptr || !workers->is_array()) return;
  std::printf("%7s %7s %6s %5s %9s %6s  %s\n", "worker", "clock",
              "stale", "live", "beat_age", "loans", "staleness");
  for (const JsonValue& w : workers->array) {
    const double stale = NumField(w, "staleness");
    const JsonValue* live = w.Find("live");
    const bool is_live = live == nullptr || live->bool_value;
    const double age = NumField(w, "last_beat_age_s");
    // One bar cell per staleness clock, capped at 20 — at a glance the
    // longest bar is the straggler the SSP gate is waiting on.
    std::string bar(static_cast<size_t>(
                        stale < 0 ? 0 : (stale > 20 ? 20 : stale)),
                    '#');
    if (!is_live) bar = "EVICTED";
    std::printf("%7.0f %7.0f %6.0f %5s %9.2f %6.0f  %s\n",
                NumField(w, "worker"), NumField(w, "clock"), stale,
                is_live ? "yes" : "no", age, NumField(w, "loans_out"),
                bar.c_str());
  }
}

/// `top`: a refreshing terminal dashboard over kStatus — clock
/// frontier, staleness bars, liveness, loan ledger, push overlap.
int RunTop(const FlagParser& flags) {
  GatewayClient client;
  Status conn = ConnectGateway(flags, &client);
  if (!conn.ok()) return Fail(conn);
  const int interval_ms =
      static_cast<int>(flags.GetInt("interval_ms", 500).value());
  const int iters = static_cast<int>(flags.GetInt("iters", 0).value());
  for (int i = 0; iters <= 0 || i < iters; ++i) {
    auto status_json =
        GatewayCall(&client, {static_cast<uint8_t>(PsOpCode::kStatus)});
    if (!status_json.ok()) {
      if (i > 0) {
        // The run we were watching finished and closed the gateway —
        // a normal way for `top` to end.
        std::printf("run ended: %s\n",
                    status_json.status().ToString().c_str());
        return 0;
      }
      return Fail(status_json.status());
    }
    auto parsed = ParseJson(status_json.value());
    if (!parsed.ok()) return Fail(parsed.status());
    if (i > 0 || iters != 1) {
      std::printf("\033[H\033[2J");  // cursor home + clear screen
    }
    RenderTopFrame(parsed.value(), i + 1);
    std::fflush(stdout);
    if (iters <= 0 || i + 1 < iters) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          interval_ms > 0 ? interval_ms : 500));
    }
  }
  return 0;
}

/// `check-obs`: parses and schema-validates previously written
/// metrics.json / trace.json files; non-zero exit on any failure. CI's
/// obs-smoke job runs this against a fresh train + simulate.
int RunCheckObs(const FlagParser& flags) {
  const std::string metrics_path = flags.GetString("metrics", "");
  const std::string trace_path = flags.GetString("trace", "");
  const std::string timeseries_path = flags.GetString("timeseries", "");
  const std::string flightrec_path = flags.GetString("flightrec", "");
  const std::string status_path = flags.GetString("status", "");
  if (metrics_path.empty() && trace_path.empty() &&
      timeseries_path.empty() && flightrec_path.empty() &&
      status_path.empty()) {
    return Fail(Status::InvalidArgument(
        "pass --metrics= / --trace= / --timeseries= / --flightrec= / "
        "--status="));
  }
  auto read_file = [](const std::string& path) -> Result<std::string> {
    std::ifstream in(path);
    if (!in) return Status::IOError("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  if (!metrics_path.empty()) {
    auto text = read_file(metrics_path);
    if (!text.ok()) return Fail(text.status());
    Status st = ValidateMetricsJson(text.value());
    if (!st.ok()) return Fail(st);
    std::printf("%s: valid hetps.metrics.v1\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    auto text = read_file(trace_path);
    if (!text.ok()) return Fail(text.status());
    Status st = ValidateChromeTraceJson(text.value());
    if (!st.ok()) return Fail(st);
    std::printf("%s: valid Chrome trace\n", trace_path.c_str());
  }
  if (!timeseries_path.empty()) {
    auto text = read_file(timeseries_path);
    if (!text.ok()) return Fail(text.status());
    Status st = ValidateTimeSeriesJson(text.value());
    if (!st.ok()) return Fail(st);
    std::printf("%s: valid hetps.timeseries.v1\n",
                timeseries_path.c_str());
  }
  if (!flightrec_path.empty()) {
    auto text = read_file(flightrec_path);
    if (!text.ok()) return Fail(text.status());
    Status st = ValidateFlightRecJson(text.value());
    if (!st.ok()) return Fail(st);
    std::printf("%s: valid hetps.flightrec.v1\n",
                flightrec_path.c_str());
  }
  if (!status_path.empty()) {
    auto text = read_file(status_path);
    if (!text.ok()) return Fail(text.status());
    Status st = ValidateStatusJson(text.value());
    if (!st.ok()) return Fail(st);
    std::printf("%s: valid hetps.status.v1\n", status_path.c_str());
  }
  return 0;
}

/// Splits a rendered series key "worker.wait_us{worker=3}" into its
/// base name and the value of its `worker` label (-1 when absent).
int WorkerLabelOf(const std::string& series, std::string* base) {
  const size_t brace = series.find('{');
  if (base != nullptr) *base = series.substr(0, brace);
  if (brace == std::string::npos) return -1;
  const size_t pos = series.find("worker=", brace);
  if (pos == std::string::npos) return -1;
  return std::atoi(series.c_str() + pos + 7);
}

double MeanOf(const std::vector<double>& v, size_t begin, size_t end) {
  if (begin >= end) return 0.0;
  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) sum += v[i];
  return sum / static_cast<double>(end - begin);
}

/// `inspect`: renders timeseries.json (+ optional metrics.json /
/// flightrec.json) into a human-readable heterogeneity report —
/// per-worker wait/compute over time, the straggler callout, the
/// push-pipeline comm-overlap summary, and the chronological flight
/// record.
int RunInspect(const FlagParser& flags) {
  const std::string timeseries_path = flags.GetString("timeseries", "");
  const std::string metrics_path = flags.GetString("metrics", "");
  const std::string flightrec_path = flags.GetString("flightrec", "");
  if (timeseries_path.empty() && metrics_path.empty() &&
      flightrec_path.empty()) {
    return Fail(Status::InvalidArgument(
        "pass at least one of --timeseries=timeseries.json "
        "[--metrics=...] [--flightrec=...]"));
  }
  auto read_file = [](const std::string& path) -> Result<std::string> {
    std::ifstream in(path);
    if (!in) return Status::IOError("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  if (!timeseries_path.empty()) {
    auto text = read_file(timeseries_path);
    if (!text.ok()) return Fail(text.status());
    Status valid = ValidateTimeSeriesJson(text.value());
    if (!valid.ok()) return Fail(valid);
    auto parsed = ParseJson(text.value());
    if (!parsed.ok()) return Fail(parsed.status());
    const JsonValue& doc = parsed.value();

    // Per-worker chronological per-window phase means (µs). A window
    // without a worker's series (no clock finished in it) is skipped for
    // that worker, so each vector is that worker's own timeline.
    std::map<int, std::vector<double>> wait_means;
    std::map<int, std::vector<double>> compute_means;
    const JsonValue* windows = doc.Find("windows");
    for (const JsonValue& window : windows->array) {
      const JsonValue* hists = window.Find("histograms");
      if (hists == nullptr || !hists->is_object()) continue;
      for (const auto& [series, h] : hists->object) {
        std::string base;
        const int worker = WorkerLabelOf(series, &base);
        if (worker < 0) continue;
        const double count = h.Find("count")->number_value;
        if (count <= 0) continue;
        const double mean = h.Find("sum")->number_value / count;
        if (base == "worker.wait_us") {
          wait_means[worker].push_back(mean);
        } else if (base == "worker.compute_us") {
          compute_means[worker].push_back(mean);
        }
      }
    }

    std::printf("heterogeneity report: %s\n", timeseries_path.c_str());
    std::printf("windows: %zu (dropped %.0f)\n", windows->array.size(),
                doc.Find("dropped_windows")->number_value);
    // The early/late comparison splits each worker's timeline in half; with
    // fewer than two windows the "early half" is empty and every mean
    // degenerates (0/0 NaN garbage). Report that cleanly instead.
    if (windows->array.size() < 2) {
      std::printf("insufficient windows: %zu (need >= 2 for the early/late "
                  "comparison; run longer or shrink the window size)\n",
                  windows->array.size());
    } else if (wait_means.empty() && compute_means.empty()) {
      std::printf("no worker.wait_us / worker.compute_us series found "
                  "(run with --timeseries_out on a training command)\n");
    } else {
      std::printf("%8s %8s %14s %14s %14s\n", "worker", "windows",
                  "wait:early us", "wait:late us", "compute us");
      for (const auto& [worker, waits] : wait_means) {
        const size_t half = waits.size() / 2;
        const std::vector<double>& computes = compute_means[worker];
        std::printf("%8d %8zu %14.0f %14.0f %14.0f\n", worker,
                    waits.size(), MeanOf(waits, 0, half ? half : 1),
                    MeanOf(waits, half, waits.size()),
                    MeanOf(computes, 0, computes.size()));
      }
      // Callouts: the slowest computer is the straggler; the worker whose
      // wait grows most is the one the admission gate parks behind it
      // (under SSP the *survivors* wait on a dead or slow peer).
      int slow_worker = -1;
      double slow_compute = -1.0;
      for (const auto& [worker, computes] : compute_means) {
        const double mean = MeanOf(computes, 0, computes.size());
        if (mean > slow_compute) {
          slow_compute = mean;
          slow_worker = worker;
        }
      }
      int blocked_worker = -1;
      double blocked_growth = -1.0;
      for (const auto& [worker, waits] : wait_means) {
        const size_t half = waits.size() / 2;
        if (half == 0) continue;
        const double growth = MeanOf(waits, half, waits.size()) -
                              MeanOf(waits, 0, half);
        if (growth > blocked_growth) {
          blocked_growth = growth;
          blocked_worker = worker;
        }
      }
      if (slow_worker >= 0) {
        std::printf("slowest compute: worker %d (mean %.0f us/clock)\n",
                    slow_worker, slow_compute);
      }
      if (blocked_worker >= 0 && blocked_growth > 0.0) {
        std::printf("most gate-blocked: worker %d (wait grew %.0f us "
                    "from early to late windows)\n",
                    blocked_worker, blocked_growth);
      }
    }
  }

  // Comm overlap: the pipelined push path reports how much push
  // transfer time it hid behind compute (worker.push_hidden_seconds
  // gauges, from WorkerTimeBreakdown). These are end-of-run gauges in
  // metrics.json, not windowed series, so they ride in via --metrics=.
  if (!metrics_path.empty()) {
    auto m_text = read_file(metrics_path);
    if (!m_text.ok()) return Fail(m_text.status());
    Status m_valid = ValidateMetricsJson(m_text.value());
    if (!m_valid.ok()) return Fail(m_valid);
    auto m_parsed = ParseJson(m_text.value());
    if (!m_parsed.ok()) return Fail(m_parsed.status());
    const JsonValue* gauges =
        m_parsed.value().Find("metrics")->Find("gauges");
    std::map<int, double> hidden;
    std::map<int, double> comm;
    if (gauges != nullptr && gauges->is_object()) {
      for (const auto& [series, v] : gauges->object) {
        std::string base;
        const int worker = WorkerLabelOf(series, &base);
        if (worker < 0) continue;
        if (base == "worker.push_hidden_seconds") {
          hidden[worker] = v.number_value;
        } else if (base == "worker.comm_seconds") {
          comm[worker] = v.number_value;
        }
      }
    }
    double total_hidden = 0.0;
    double total_comm = 0.0;
    for (const auto& [worker, h] : hidden) total_hidden += h;
    for (const auto& [worker, c] : comm) total_comm += c;
    if (hidden.empty()) {
      std::printf("\ncomm overlap: no worker.push_hidden_seconds gauges "
                  "in %s (train with --push_window >= 1)\n",
                  metrics_path.c_str());
    } else {
      // hidden / (hidden + comm) = fraction of transfer time the
      // pipeline took off the critical path for that worker.
      std::printf("\ncomm overlap (%s):\n", metrics_path.c_str());
      std::printf("%8s %14s %14s %10s\n", "worker", "hidden s",
                  "blocked s", "overlap");
      for (const auto& [worker, h] : hidden) {
        const double c = comm.count(worker) ? comm[worker] : 0.0;
        const double denom = h + c;
        std::printf("%8d %14.3f %14.3f %9.0f%%\n", worker, h, c,
                    denom > 0.0 ? 100.0 * h / denom : 0.0);
      }
      const double total = total_hidden + total_comm;
      std::printf("pushes hid %.3fs of transfer behind compute "
                  "(%.0f%% of %.3fs total comm+hidden)\n",
                  total_hidden,
                  total > 0.0 ? 100.0 * total_hidden / total : 0.0,
                  total);
    }
  }

  if (!flightrec_path.empty()) {
    auto fr_text = read_file(flightrec_path);
    if (!fr_text.ok()) return Fail(fr_text.status());
    Status fr_valid = ValidateFlightRecJson(fr_text.value());
    if (!fr_valid.ok()) return Fail(fr_valid);
    auto fr_parsed = ParseJson(fr_text.value());
    if (!fr_parsed.ok()) return Fail(fr_parsed.status());
    const JsonValue& fr = fr_parsed.value();
    const JsonValue* events = fr.Find("events");
    const JsonValue* reason = fr.Find("dump_reason");
    std::printf("\nflight record: %s (%zu events, last dump: %s)\n",
                flightrec_path.c_str(), events->array.size(),
                reason != nullptr && reason->is_string()
                    ? reason->string_value.c_str()
                    : "?");
    for (const JsonValue& ev : events->array) {
      const JsonValue* note = ev.Find("note");
      std::printf("  %12.3fms  %-18s",
                  ev.Find("ts_us")->number_value / 1000.0,
                  ev.Find("kind")->string_value.c_str());
      const double worker = ev.Find("worker")->number_value;
      const double clock = ev.Find("clock")->number_value;
      const double value = ev.Find("value")->number_value;
      if (worker >= 0) std::printf(" worker=%.0f", worker);
      if (clock >= 0) std::printf(" clock=%.0f", clock);
      if (value != 0.0) std::printf(" value=%g", value);
      if (note != nullptr && note->is_string()) {
        std::printf(" (%s)", note->string_value.c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  Status st = flags.Parse(argc - 1, argv + 1);
  if (!st.ok()) return Fail(st);
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: hetps_train "
                 "<train|evaluate|predict|simulate|check-obs|inspect|"
                 "dump-status|top|obs-ctl> "
                 "[flags]\n(see the header of cli/hetps_train.cc)\n");
    return 1;
  }
  const std::string command = flags.positional()[0];
  int rc = 0;
  if (command == "train") {
    rc = RunTrain(flags);
  } else if (command == "evaluate") {
    rc = RunEvaluate(flags);
  } else if (command == "predict") {
    rc = RunPredict(flags);
  } else if (command == "simulate") {
    rc = RunSimulate(flags);
  } else if (command == "check-obs") {
    rc = RunCheckObs(flags);
  } else if (command == "inspect") {
    rc = RunInspect(flags);
  } else if (command == "dump-status") {
    rc = RunDumpStatus(flags);
  } else if (command == "top") {
    rc = RunTop(flags);
  } else if (command == "obs-ctl") {
    rc = RunObsCtl(flags);
  } else {
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return 1;
  }
  for (const std::string& name : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", name.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace hetps

int main(int argc, char** argv) {
  return hetps::Main(argc, argv);
}
