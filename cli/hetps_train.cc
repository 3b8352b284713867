// hetps_train — command-line front end for the library.
//
//   hetps_train train        train a linear model (--runtime=threaded|rpc)
//   hetps_train evaluate     objective and accuracy of a saved model
//   hetps_train predict      a saved model's predictions
//   hetps_train simulate     one run on the event simulator
//   hetps_train check-obs    validate metrics/trace/timeseries/flightrec/
//                            status files
//   hetps_train inspect      a heterogeneity report from those files
//   hetps_train dump-status  one status snapshot of a live run
//   hetps_train top          a refreshing dashboard of a live run
//   hetps_train obs-ctl      flip a live run's observability knobs
//
// `hetps_train COMMAND --help` lists every flag COMMAND reads, with its
// type and default (`train --runtime=rpc --help` the RPC runtime's). A
// command reads all its flags into its options first; a malformed value,
// an unknown flag or options that Validate() rejects then print one
// "error:" line and exit 1, before any work.
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
#include <cmath>
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
#include <utility>
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

/// The one check each command makes once it has read all its flags, and
/// before any work. Returns the exit code when the command stops here: 0
/// after printing --help, 1 on a malformed value, an unknown flag or a
/// `spec` error.
std::optional<int> Gate(FlagParser& flags, const std::string& command,
                        const Status& spec = Status::OK()) {
  bool help = false;
  flags.Read("help", &help);
  if (help) {
    std::printf("usage: hetps_train %s [--flag=value ...]\n%s",
                command.c_str(), flags.Usage().c_str());
    return 0;
  }
  Status st = flags.Check();
  if (st.ok()) st = spec;
  if (st.ok()) return std::nullopt;
  return Fail(st);
}

/// Where a command's examples come from: --synthetic generates them
/// from --seed, --data reads a LIBSVM file.
struct DataFlags {
  std::string path;
  std::string synthetic;
  uint64_t seed = 42;
};

void ReadDataFlags(FlagParser& flags, DataFlags* data) {
  flags.Read("data", &data->path);
  flags.Read("synthetic", &data->synthetic, {"url", "ctr"});
  flags.Read("seed", &data->seed);
}

Result<Dataset> LoadData(const DataFlags& data) {
  if (!data.synthetic.empty()) {
    Dataset d = data.synthetic == "ctr"
                    ? GenerateSynthetic(CtrLikeConfig(1.0, data.seed))
                    : GenerateSynthetic(UrlLikeConfig(1.0, data.seed));
    Rng rng(data.seed + 1);
    d.Shuffle(&rng);
    return d;
  }
  if (data.path.empty()) {
    return Status::InvalidArgument(
        "pass --data=<libsvm file> or --synthetic=url|ctr");
  }
  return ReadLibSvmFile(data.path);
}

/// The observability flags of train and simulate.
struct ReportFlags {
  RunReporterOptions options;
  int trace_buffer_kb = 256;
  int flightrec_events = 4096;
};

void ReadReportFlags(FlagParser& flags, ReportFlags* report) {
  flags.Read("metrics_out", &report->options.metrics_out);
  flags.Read("trace_out", &report->options.trace_out);
  flags.Read("timeseries_out", &report->options.timeseries_out);
  flags.Read("flightrec_out", &report->options.flightrec_out);
  flags.Read("report_every", &report->options.report_every);
  flags.Read("trace_buffer_kb", &report->trace_buffer_kb);
  flags.Read("flightrec_events", &report->flightrec_events);
}

/// Primes the global metric/trace state and hands back a RunReporter
/// (null when no output was requested). `run_info` annotates
/// metrics.json's "run" object.
std::unique_ptr<RunReporter> MakeReporter(
    const ReportFlags& report,
    std::vector<std::pair<std::string, std::string>> run_info) {
  RunReporterOptions opts = report.options;
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
  for (const char* name :
       {"bus.delivered", "bus.fault.dropped_requests",
        "bus.fault.dropped_responses", "bus.fault.duplicated_requests",
        "bus.fault.delayed_requests", "rpc.client_retries"}) {
    GlobalMetrics().counter(name);
  }
  if (!opts.trace_out.empty()) {
    TraceRecorder::Global().Clear();
    TraceOptions trace_opts;
    trace_opts.buffer_kb_per_thread =
        report.trace_buffer_kb > 0
            ? static_cast<size_t>(report.trace_buffer_kb)
            : 256;
    TraceRecorder::Global().Start(trace_opts);
  }
  if (!opts.flightrec_out.empty()) {
    FlightRecorder::Global().Clear();
    FlightRecorder::Global().Start(
        report.flightrec_events > 0
            ? static_cast<size_t>(report.flightrec_events)
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
  const RunReporterOptions& out = reporter->options();
  for (const auto& [what, path] :
       {std::pair{"metrics", &out.metrics_out}, {"trace", &out.trace_out},
        {"timeseries", &out.timeseries_out},
        {"flight record", &out.flightrec_out}}) {
    if (!path->empty()) std::printf("%s written to %s\n", what, path->c_str());
  }
  return 0;
}

/// Reads the flags of the options every runtime shares.
void ReadRunSpec(FlagParser& flags, RunSpec* spec) {
  flags.Read("protocol", &spec->sync.protocol,
             {{"bsp", Protocol::kBsp},
              {"asp", Protocol::kAsp},
              {"ssp", Protocol::kSsp}});
  flags.Read("staleness", &spec->sync.staleness);
  if (spec->sync.protocol == Protocol::kBsp) spec->sync = SyncPolicy::Bsp();
  if (spec->sync.protocol == Protocol::kAsp) spec->sync = SyncPolicy::Asp();
  flags.Read("clocks", &spec->max_clocks);
  flags.Read("l2", &spec->l2);
  flags.Read("batch_fraction", &spec->batch_fraction);
  flags.Read("partitions", &spec->partitions_per_server);
  flags.Read("scheme", &spec->scheme,
             {{"range", PartitionScheme::kRange},
              {"hash", PartitionScheme::kHash},
              {"rangehash", PartitionScheme::kRangeHash}});
  flags.Read("update_filter", &spec->update_filter_epsilon);
  flags.Read("push_window", &spec->push_window);
  flags.Read("heartbeat_timeout", &spec->heartbeat_timeout_seconds);
  flags.Read("evict_dead_workers", &spec->evict_dead_workers);
  flags.Read("rebalance", &spec->rebalance);
  flags.Read("straggler_threshold", &spec->balancer.straggler_threshold);
  flags.Read("rebalance_hysteresis", &spec->balancer.hysteresis);
  flags.Read("reassign_fraction", &spec->balancer.reassign_fraction);
}

/// Writes `model` to `path`, when one is set.
Status SaveModel(const std::string& path, const LinearModel& model) {
  if (path.empty()) return Status::OK();
  HETPS_RETURN_NOT_OK(model.Save(path));
  std::printf("model written to %s\n", path.c_str());
  return Status::OK();
}

/// `train`: the threaded runtime (LinearModel::Train), or with
/// --runtime=rpc the fully-distributed one — worker threads talk to the
/// PS service over the serialized message bus, with the liveness /
/// rebalancing planes and (via --serve_status) the live introspection
/// gateway.
int RunTrain(FlagParser& flags) {
  std::string runtime = "threaded";
  flags.Read("runtime", &runtime, {"threaded", "rpc"});
  const bool rpc = runtime == "rpc";
  // The threaded runtime's options, and the learner of both runtimes.
  LinearModelConfig cfg;
  cfg.learning_rate = 0.3;
  DistributedTrainerOptions rpc_opts;
  TrainSpec& spec = rpc ? static_cast<TrainSpec&>(rpc_opts) : cfg;
  ReadRunSpec(flags, &spec);
  flags.Read("workers", &spec.num_workers);
  flags.Read("servers", &spec.num_servers);
  flags.Read("push_parallelism", &spec.push_parallelism);
  flags.Read("compute_delay", &spec.injected_compute_delay);
  flags.Read("loss", &cfg.loss, LossNames());
  flags.Read("rule", &cfg.rule, RuleNames());
  flags.Read("lr", &cfg.learning_rate);
  flags.Read("decay", &cfg.decayed_rate);
  if (rpc) flags.Read("serve_status", &rpc_opts.serve_status_path);
  DataFlags data;
  ReadDataFlags(flags, &data);
  ReportFlags report;
  ReadReportFlags(flags, &report);
  std::string model_out;
  flags.Read("model", &model_out);
  // cfg also holds the RPC runtime's loss, rule and learning rate.
  Status valid = spec.Validate();
  if (valid.ok() && rpc) valid = cfg.Validate();
  if (auto rc = Gate(flags, "train", valid)) return *rc;

  auto dataset = LoadData(data);
  if (!dataset.ok()) return Fail(dataset.status());
  std::unique_ptr<RunReporter> reporter = MakeReporter(
      report, {{"command", "train"},
               {"runtime", runtime},
               {"loss", cfg.loss},
               {"rule", cfg.rule},
               {"protocol", spec.sync.DebugString()},
               {"workers", std::to_string(spec.num_workers)},
               {"servers", std::to_string(spec.num_servers)},
               {"clocks", std::to_string(spec.max_clocks)}});
  if (reporter != nullptr) {
    spec.on_epoch = [rep = reporter.get()](int epoch) { rep->OnEpoch(epoch); };
  }

  if (!rpc) {
    auto model = LinearModel::Train(dataset.value(), cfg);
    if (!model.ok()) return Fail(model.status());
    std::printf("trained %s/%s in %.2fs wall: objective %.4f, accuracy "
                "%.3f\n",
                cfg.loss.c_str(), cfg.rule.c_str(),
                model.value().train_stats().wall_seconds,
                model.value().Objective(dataset.value()),
                model.value().Accuracy(dataset.value()));
    const Status saved = SaveModel(model_out, model.value());
    if (!saved.ok()) return Fail(saved);
    return FinishReport(reporter.get());
  }

  auto rule = MakeConsolidationRule(cfg.rule);
  auto loss = MakeLoss(cfg.loss);
  std::unique_ptr<LearningRateSchedule> sched;
  if (cfg.decayed_rate) {
    sched = std::make_unique<DecayedRate>(cfg.learning_rate);
  } else {
    sched = std::make_unique<FixedRate>(cfg.learning_rate);
  }
  auto result =
      TrainDistributed(dataset.value(), *loss, *sched, *rule, rpc_opts);
  if (!result.ok()) return Fail(result.status());
  const DistributedTrainResult& r = result.value();
  std::printf("trained (rpc runtime): objective %.4f over %d clocks, "
              "%lld messages, %lld retries\n",
              r.final_objective, rpc_opts.max_clocks,
              static_cast<long long>(r.messages),
              static_cast<long long>(r.rpc_retries));
  if (!r.evicted_workers.empty()) {
    std::printf("liveness: evicted=%zu failed_over_examples=%lld\n",
                r.evicted_workers.size(),
                static_cast<long long>(r.examples_failed_over));
  }
  if (rpc_opts.rebalance) {
    std::printf("rebalance: examples_moved=%lld examples_returned=%lld "
                "migrations=%lld\n",
                static_cast<long long>(r.examples_rebalanced),
                static_cast<long long>(r.examples_returned),
                static_cast<long long>(r.lb_migrations));
  }
  const Status saved =
      SaveModel(model_out, LinearModel(r.weights, cfg.loss, rpc_opts.l2));
  if (!saved.ok()) return Fail(saved);
  return FinishReport(reporter.get());
}

/// `evaluate` prints a saved --model's objective and accuracy over the
/// data; `predict` prints its predictions, to --out when set.
int RunSavedModel(FlagParser& flags, bool predict) {
  DataFlags data;
  ReadDataFlags(flags, &data);
  std::string model_path;
  std::string out_path;
  flags.Read("model", &model_path);
  if (predict) flags.Read("out", &out_path);
  if (auto rc = Gate(flags, predict ? "predict" : "evaluate")) return *rc;
  if (model_path.empty()) {
    return Fail(Status::InvalidArgument("pass --model=<file>"));
  }
  auto dataset = LoadData(data);
  if (!dataset.ok()) return Fail(dataset.status());
  auto model = LinearModel::Load(model_path);
  if (!model.ok()) return Fail(model.status());
  if (!predict) {
    std::printf("objective %.4f, accuracy %.3f over %zu examples\n",
                model.value().Objective(dataset.value()),
                model.value().Accuracy(dataset.value()),
                dataset.value().size());
    return 0;
  }
  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) return Fail(Status::IOError("cannot open " + out_path));
  }
  std::ostream& os = out_path.empty() ? std::cout : file;
  for (size_t i = 0; i < dataset.value().size(); ++i) {
    os << model.value().Predict(dataset.value().example(i).features)
       << '\n';
  }
  return 0;
}

/// The values `simulate` reads that no options struct holds (the
/// cluster's and the step size), and the workers `options` names.
Status CheckSimulateValues(int workers, int servers, double hl, double lr,
                           const SimOptions& options) {
  std::ostringstream bad;
  if (workers <= 0 || servers <= 0) {
    bad << "--workers and --servers must be positive, got " << workers
        << " and " << servers;
  } else if (!(std::isfinite(hl) && hl >= 1.0)) {
    bad << "--hl must be >= 1, got " << hl;
  } else if (!(std::isfinite(lr) && lr > 0.0)) {
    bad << "--lr must be positive, got " << lr;
  } else if (options.kill_worker >= workers ||
             options.slow_worker >= workers) {
    bad << "--kill_worker and --slow_worker must be below --workers="
        << workers;
  }
  return bad.str().empty() ? Status::OK()
                           : Status::InvalidArgument(bad.str());
}

int RunSimulate(FlagParser& flags) {
  int workers = 30;
  int servers = 10;
  double hl = 2.0;
  flags.Read("workers", &workers);
  flags.Read("servers", &servers);
  flags.Read("hl", &hl);
  SimOptions options;
  options.max_clocks = 60;
  options.objective_tolerance = 0.4;
  ReadRunSpec(flags, &options);
  std::string loss_name = "logistic";
  std::string rule_name = "dyn";
  double lr = 2.0;
  flags.Read("loss", &loss_name, LossNames());
  flags.Read("rule", &rule_name, RuleNames());
  flags.Read("lr", &lr);
  flags.Read("tolerance", &options.objective_tolerance);
  // Liveness / failure injection (see DESIGN.md "Failure model & worker
  // eviction"): --kill_worker/--kill_at_clock crash-stop one worker,
  // --heartbeat_timeout arms eviction, --evict_dead_workers=0 shows the
  // stall instead.
  flags.Read("kill_worker", &options.kill_worker);
  flags.Read("kill_at_clock", &options.kill_at_clock);
  if (options.kill_worker >= 0 &&
      options.heartbeat_timeout_seconds <= 0.0) {
    // A kill without the liveness plane stalls until max_sim_seconds;
    // bound the demonstration.
    options.max_sim_seconds = 600.0;
  }
  flags.Read("max_sim_seconds", &options.max_sim_seconds);
  // --slow_worker/--slow_multiplier inject a transient congestion
  // episode for --rebalance to chase (see EXPERIMENTS.md).
  flags.Read("slow_worker", &options.slow_worker);
  flags.Read("slow_from_clock", &options.slow_from_clock);
  flags.Read("slow_until_clock", &options.slow_until_clock);
  flags.Read("slow_multiplier", &options.slow_multiplier);
  DataFlags data;
  ReadDataFlags(flags, &data);
  ReportFlags report;
  ReadReportFlags(flags, &report);
  const Status values = CheckSimulateValues(workers, servers, hl, lr, options);
  if (auto rc = Gate(flags, "simulate",
                     values.ok() ? options.Validate() : values)) {
    return *rc;
  }

  auto dataset = LoadData(data);
  if (!dataset.ok()) return Fail(dataset.status());
  const Status fits =
      ValidateClusterForDataset(workers, servers, dataset.value());
  if (!fits.ok()) return Fail(fits);
  auto rule = MakeConsolidationRule(rule_name);
  auto loss = MakeLoss(loss_name);
  FixedRate sched(lr);
  const ClusterConfig cluster =
      ClusterConfig::WithStragglers(workers, servers, hl, 0.2);
  std::unique_ptr<RunReporter> reporter = MakeReporter(
      report, {{"command", "simulate"},
               {"rule", rule_name},
               {"protocol", options.sync.DebugString()},
               {"workers", std::to_string(workers)},
               {"servers", std::to_string(servers)},
               {"hl", std::to_string(hl)}});
  if (reporter != nullptr) {
    RunReporter* rep = reporter.get();
    options.on_epoch = [rep](int epoch) { rep->OnEpoch(epoch); };
    if (rep->timeseries() != nullptr) {
      // The simulator stamps windows with virtual time (SnapshotAt); the
      // reporter must not also close wall-clock windows.
      options.timeseries = rep->timeseries();
      rep->UseExternalTimeSeriesClock();
    }
  }
  const SimResult r = RunSimulation(dataset.value(), cluster, *rule, sched,
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

Status ConnectGateway(const std::string& path, GatewayClient* client) {
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
int RunDumpStatus(FlagParser& flags) {
  std::string bus;
  std::string out;
  std::string scrape_out;
  flags.Read("bus", &bus);
  flags.Read("out", &out);
  flags.Read("scrape_out", &scrape_out);
  if (auto rc = Gate(flags, "dump-status")) return *rc;
  GatewayClient client;
  Status conn = ConnectGateway(bus, &client);
  if (!conn.ok()) return Fail(conn);
  auto status_json =
      GatewayCall(&client, {static_cast<uint8_t>(PsOpCode::kStatus)});
  if (!status_json.ok()) return Fail(status_json.status());
  if (out.empty()) {
    std::printf("%s\n", status_json.value().c_str());
  } else {
    std::ofstream file(out);
    if (!file) return Fail(Status::IOError("cannot open " + out));
    file << status_json.value() << '\n';
    std::printf("status written to %s\n", out.c_str());
  }
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
int RunObsCtl(FlagParser& flags) {
  std::string bus;
  std::string trace;
  std::string exemplars;
  int64_t slow_us = -1;
  std::string op_name = "all";
  bool flight_dump = false;
  flags.Read("bus", &bus);
  flags.Read("trace", &trace, {"on", "off"});
  flags.Read("exemplars", &exemplars, {"on", "off"});
  flags.Read("slow_us", &slow_us);
  flags.Read("slow_op", &op_name);
  flags.Read("flight_dump", &flight_dump);
  // The kObsControl requests the flags ask for, each with its ack line.
  const uint8_t kCtl = static_cast<uint8_t>(PsOpCode::kObsControl);
  std::vector<std::pair<std::vector<uint8_t>, std::string>> requests;
  if (!trace.empty()) {
    requests.push_back({{kCtl, 1, static_cast<uint8_t>(trace == "on")},
                        "trace " + trace});
  }
  if (!exemplars.empty()) {
    requests.push_back({{kCtl, 2, static_cast<uint8_t>(exemplars == "on")},
                        "exemplars " + exemplars});
  }
  // The service's "all opcodes" wildcard is 0.
  const std::optional<PsOpCode> named = PsOpCodeFromName(op_name);
  if (slow_us >= 0) {
    ByteWriter w;
    w.WriteU8(kCtl);
    w.WriteU8(3);
    w.WriteU8(named.has_value() ? static_cast<uint8_t>(*named) : 0);
    w.WriteI64(slow_us);
    requests.push_back({w.TakeBuffer(), "slow threshold (" + op_name + ")"});
  }
  if (flight_dump) requests.push_back({{kCtl, 4}, "flight dump"});
  Status st;
  if (op_name != "all" && !named.has_value()) {
    st = Status::InvalidArgument("unknown --slow_op: " + op_name);
  } else if (requests.empty()) {
    st = Status::InvalidArgument(
        "pass at least one of --trace= / --exemplars= / --slow_us= / "
        "--flight_dump");
  }
  if (auto rc = Gate(flags, "obs-ctl", st)) return *rc;
  GatewayClient client;
  Status conn = ConnectGateway(bus, &client);
  if (!conn.ok()) return Fail(conn);
  for (const auto& [request, what] : requests) {
    auto ack = GatewayCall(&client, request);
    if (!ack.ok()) return Fail(ack.status());
    std::printf("%s: ok\n", what.c_str());
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
int RunTop(FlagParser& flags) {
  std::string bus;
  int interval_ms = 500;
  int iters = 0;
  flags.Read("bus", &bus);
  flags.Read("interval_ms", &interval_ms);
  flags.Read("iters", &iters);
  if (auto rc = Gate(flags, "top")) return *rc;
  GatewayClient client;
  Status conn = ConnectGateway(bus, &client);
  if (!conn.ok()) return Fail(conn);
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

/// The JSON document in the file at `path`, once `validate` accepts it.
Result<JsonValue> ReadArtifact(const std::string& path,
                               Status (*validate)(const std::string&)) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  HETPS_RETURN_NOT_OK(validate(buf.str()));
  return ParseJson(buf.str());
}

/// `check-obs`: parses and schema-validates previously written
/// metrics.json / trace.json files; non-zero exit on any failure. CI's
/// obs-smoke job runs this against a fresh train + simulate.
int RunCheckObs(FlagParser& flags) {
  struct Artifact {
    const char* flag;
    Status (*validate)(const std::string&);
    const char* schema;
    std::string path;
  };
  Artifact artifacts[] = {
      {"metrics", ValidateMetricsJson, "hetps.metrics.v2", ""},
      {"trace", ValidateChromeTraceJson, "Chrome trace", ""},
      {"timeseries", ValidateTimeSeriesJson, "hetps.timeseries.v1", ""},
      {"flightrec", ValidateFlightRecJson, "hetps.flightrec.v1", ""},
      {"status", ValidateStatusJson, "hetps.status.v1", ""}};
  bool any = false;
  for (Artifact& a : artifacts) {
    flags.Read(a.flag, &a.path);
    any = any || !a.path.empty();
  }
  if (auto rc = Gate(flags, "check-obs")) return *rc;
  if (!any) {
    return Fail(Status::InvalidArgument(
        "pass --metrics= / --trace= / --timeseries= / --flightrec= / "
        "--status="));
  }
  for (const Artifact& a : artifacts) {
    if (a.path.empty()) continue;
    auto doc = ReadArtifact(a.path, a.validate);
    if (!doc.ok()) return Fail(doc.status());
    std::printf("%s: valid %s\n", a.path.c_str(), a.schema);
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
int RunInspect(FlagParser& flags) {
  std::string timeseries_path;
  std::string metrics_path;
  std::string flightrec_path;
  flags.Read("timeseries", &timeseries_path);
  flags.Read("metrics", &metrics_path);
  flags.Read("flightrec", &flightrec_path);
  if (auto rc = Gate(flags, "inspect")) return *rc;
  if (timeseries_path.empty() && metrics_path.empty() &&
      flightrec_path.empty()) {
    return Fail(Status::InvalidArgument(
        "pass at least one of --timeseries=timeseries.json "
        "[--metrics=...] [--flightrec=...]"));
  }
  if (!timeseries_path.empty()) {
    auto parsed = ReadArtifact(timeseries_path, ValidateTimeSeriesJson);
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
    auto m_parsed = ReadArtifact(metrics_path, ValidateMetricsJson);
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
    auto fr_parsed = ReadArtifact(flightrec_path, ValidateFlightRecJson);
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
  const std::map<std::string, int (*)(FlagParser&)> commands = {
      {"train", RunTrain},
      {"evaluate", [](FlagParser& f) { return RunSavedModel(f, false); }},
      {"predict", [](FlagParser& f) { return RunSavedModel(f, true); }},
      {"simulate", RunSimulate},
      {"check-obs", RunCheckObs},
      {"inspect", RunInspect},
      {"dump-status", RunDumpStatus},
      {"top", RunTop},
      {"obs-ctl", RunObsCtl}};
  const auto it = flags.positional().empty()
                      ? commands.end()
                      : commands.find(flags.positional()[0]);
  if (it == commands.end()) {
    std::fprintf(stderr,
                 "usage: hetps_train "
                 "<train|evaluate|predict|simulate|check-obs|inspect|"
                 "dump-status|top|obs-ctl> [flags]\n"
                 "(hetps_train COMMAND --help lists COMMAND's flags)\n");
    return 1;
  }
  return it->second(flags);
}

}  // namespace
}  // namespace hetps

int main(int argc, char** argv) {
  return hetps::Main(argc, argv);
}
