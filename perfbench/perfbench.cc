// The repository's benchmark: runs one named workload through a runtime's
// public entry point and prints every metric by name with its unit, the
// last stdout line being one JSON object. See README.md.
//
//   hetps_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--git_sha <sha>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the benchmark's own copy of the worker loop with a span around each
// layer call, takes the difference of the program's registry histograms
// over that run, and prints the per-layer metrics.

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "math/kernels.h"
#include "obs/metrics.h"
#include "runtimes.h"
#include "spans.h"
#include "util/logging.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--git_sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

// Shortest decimal that reads back as the same double.
std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

// Pass/fail bookkeeping: every check, and operations attempted/failed.
struct Tally {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
};

// RPC attempts beyond the first since construction, from the program's
// rpc.client_retries counter (summed over every client).
class RetryCount {
 public:
  RetryCount()
      : counter_(hetps::GlobalMetrics().counter("rpc.client_retries")),
        start_(counter_->value()) {}
  int64_t Delta() const { return counter_->value() - start_; }

 private:
  hetps::Counter* counter_;
  int64_t start_;
};

double Elapsed(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Restarts the kernel's peak-RSS mark for this process (Linux
// clear_refs "5"), so the next PeakRssMb() is the peak of what ran since.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// Peak resident set (VmHWM) in MiB; the process-lifetime peak from
// getrusage when /proc is unreadable.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// The highest percentile (at most p99) with ten samples beyond it, or
// the median when there are too few samples for any tail.
double TailOf(int64_t n) {
  const double p = TailPercentile(n);
  return p > 0.0 ? p : 50.0;
}

std::string TailNote(int64_t n) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g of n=%lld", TailOf(n),
                static_cast<long long>(n));
  return buf;
}

std::string SpreadNote(const std::vector<double>& values) {
  const Quartiles q = ComputeQuartiles(values);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "median of %zu runs, IQR/median %.4f",
                values.size(), RelativeIqr(q));
  return buf;
}

void PrintEnv(const Args& args) {
  std::printf(
      "env: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
      "kernel_isa=%s build_type=%s git_sha=%s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      hetps::kernels::KernelIsaName(hetps::kernels::ActiveKernelIsa()),
      PERFBENCH_BUILD_TYPE, args.git_sha.c_str());
}

// Prints the table, then the result line; returns the exit code.
int Finish(const std::vector<Metric>& metrics, const Tally& tally) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %16s %-6s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " +
            Num(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return tally.correct ? 0 : 1;
}

// Counts a finished engine run and checks its outputs.
void CheckEngineRun(const WorkloadSpec& spec, const EngineRun& run,
                    Tally* tally) {
  tally->attempted += run.clocks_attempted;
  if (!run.ok) tally->failed += run.clocks_attempted;
  tally->Check(run.ok, std::string("worker status: ") + run.error);
  tally->Check(run.finite, "weights and objectives are finite");
  tally->Check(run.final_objective <= spec.objective_ceiling,
               "final_objective " + Num(run.final_objective) +
                   " <= ceiling " + Num(spec.objective_ceiling));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

int RunEndToEnd(const Args& args, const WorkloadSpec& spec) {
  Tally tally;
  const RetryCount retries;
  // Set-up is repeated (at least 3 times and 0.5 s) so its median is
  // steady; the last one is used.
  std::vector<double> setup_s;
  Setup setup;
  const auto setup_start = std::chrono::steady_clock::now();
  while (setup_s.size() < 3 || Elapsed(setup_start) < 0.5) {
    const auto start = std::chrono::steady_clock::now();
    setup = MakeSetup(spec, args.seed);
    setup_s.push_back(Elapsed(start));
  }

  // Warm-up: one full, discarded run fills caches and finishes lazy
  // set-up (kernel dispatch, metric registration, page faults, thread
  // start-up) before anything is timed. On the simulator it is also the
  // reference of the determinism check.
  const bool sim = spec.runtime == Runtime::kSim;
  const EngineRun warm = RunEngine(spec, setup, spec.clocks);
  tally.attempted += warm.clocks_attempted;
  tally.Check(warm.ok, "warm-up worker status: " + warm.error);

  std::vector<EngineRun> runs;
  std::vector<double> rss_mb;
  const auto start = std::chrono::steady_clock::now();
  do {
    const bool rss_reset = ResetPeakRss();
    runs.push_back(RunEngine(spec, setup, spec.clocks));
    if (rss_reset) rss_mb.push_back(PeakRssMb());
    const EngineRun& run = runs.back();
    CheckEngineRun(spec, run, &tally);
    tally.Check(run.time_to_target_s >= 0.0,
                "objective reached the target " + Num(spec.target));
    if (sim) {
      tally.Check(SameBits(run.sim.run_time_seconds,
                           warm.sim.run_time_seconds) &&
                      run.sim.updates_to_converge ==
                          warm.sim.updates_to_converge &&
                      SameBits(run.final_objective, warm.final_objective),
                  "same-seed simulations are bitwise identical");
    }
    std::fprintf(stderr,
                 "run %zu: %.3f s, %lld clocks, time_to_target %.4f s, "
                 "updates_to_target %lld, final_objective %.6f\n",
                 runs.size(), run.wall_s, static_cast<long long>(run.clocks),
                 run.time_to_target_s,
                 static_cast<long long>(run.updates_to_target),
                 run.final_objective);
  } while (Elapsed(start) < args.seconds);

  std::vector<double> cps, ttt, utt, obj, clock_ms;
  for (const EngineRun& run : runs) {
    cps.push_back(Ratio(static_cast<double>(run.clocks), run.wall_s));
    ttt.push_back(run.time_to_target_s);
    utt.push_back(static_cast<double>(run.updates_to_target));
    obj.push_back(run.final_objective);
    clock_ms.insert(clock_ms.end(), run.clock_ms.begin(),
                    run.clock_ms.end());
  }
  tally.failed += retries.Delta();
  // The clock tail (clock_ms_p99) is a per-layer metric of the traced run:
  // on a shared host it moved by more than any usable bound between runs
  // of the same code.
  const std::vector<Metric> metrics = {
      {"clocks_per_s", Median(cps), "1/s", SpreadNote(cps)},
      {"time_to_target_s", Median(ttt), "s",
       (sim ? "simulated; " : "wall; ") + SpreadNote(ttt)},
      {"updates_to_target", Median(utt), "count", SpreadNote(utt)},
      {"clock_ms_p50", Percentile(clock_ms, 50), "ms",
       "n=" + std::to_string(clock_ms.size())},
      {"final_objective", Median(obj), "loss", SpreadNote(obj)},
      {"setup_s", Median(setup_s), "s", SpreadNote(setup_s)},
      {"peak_rss_mb", rss_mb.empty() ? PeakRssMb() : Median(rss_mb), "MB",
       rss_mb.empty() ? "whole process" : SpreadNote(rss_mb)},
  };
  return Finish(metrics, tally);
}

// Histogram families of the program's registry the traced run reads.
const std::vector<std::string> kRegistryFamilies = {
    "compute.gather_us", "compute.scatter_us", "ps.push_apply_us",
    "ps.push_lock_wait_us", "ps.pull_piece_us", "ps.admission_wait_us",
    "bus.rpc_latency_us", "rpc.handle_us"};

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  Tally tally;
  const bool sim = spec.runtime == Runtime::kSim;
  const Setup setup = MakeSetup(spec, args.seed);
  const RetryCount retries;
  const EngineRun warm = RunEngine(spec, setup, spec.clocks);
  tally.attempted += warm.clocks_attempted;
  tally.Check(warm.ok, "warm-up worker status: " + warm.error);

  // Phase A: the engine's own loop, untraced.
  const double phase_s = args.seconds / (sim ? 2.0 : 3.0);
  std::vector<double> engine_cps, clock_ms;
  double compute_s = 0.0, comm_s = 0.0, wait_s = 0.0, worker_s = 0.0;
  auto start = std::chrono::steady_clock::now();
  do {
    const EngineRun run = RunEngine(spec, setup, spec.clocks);
    CheckEngineRun(spec, run, &tally);
    engine_cps.push_back(Ratio(static_cast<double>(run.clocks), run.wall_s));
    clock_ms.insert(clock_ms.end(), run.clock_ms.begin(), run.clock_ms.end());
    for (const hetps::WorkerTimeBreakdown& b : run.breakdown) {
      compute_s += b.compute_seconds;
      comm_s += b.comm_seconds;
      wait_s += b.wait_seconds;
    }
    worker_s += run.worker_seconds;
  } while (Elapsed(start) < phase_s);

  auto check_loop = [&](const LoopRun& run) {
    const int64_t attempted = static_cast<int64_t>(setup.workers) *
                              spec.clocks;
    tally.attempted += attempted;
    if (!run.ok) tally.failed += attempted;
    tally.Check(run.ok, "worker status: " + run.error);
    tally.Check(run.finite, "weights and objectives are finite");
  };

  // Phase B: the benchmark's copy of the loop, untraced.
  std::vector<double> untraced_cps;
  if (!sim) {
    start = std::chrono::steady_clock::now();
    do {
      const LoopRun run = RunWorkerLoop(spec, setup, nullptr);
      check_loop(run);
      untraced_cps.push_back(
          Ratio(static_cast<double>(run.clocks), run.wall_s));
    } while (Elapsed(start) < phase_s);
  }

  // Phase C: traced. Registry deltas cover exactly this phase.
  std::vector<SpanBuffer> buffers;
  std::vector<double> traced_cps;
  int64_t clocks = 0, nnz = 0, pulls = 0, pulled = 0, pulled_full = 0;
  hetps::SimResult sim_result;
  const RegistrySnapshot before = RegistrySnapshot::Take(kRegistryFamilies);
  if (sim) {
    buffers.resize(1);
    start = std::chrono::steady_clock::now();
    do {
      const auto t0 = std::chrono::steady_clock::now();
      EngineRun run;
      {
        ScopedSpan span(&buffers[0], kRunSimulation);
        run = RunEngine(spec, setup, spec.clocks);
      }
      traced_cps.push_back(
          Ratio(static_cast<double>(run.clocks), Elapsed(t0)));
      CheckEngineRun(spec, run, &tally);
      clocks += run.clocks;
      sim_result = std::move(run.sim);
    } while (Elapsed(start) < phase_s);
    untraced_cps = engine_cps;
    pulled = sim_result.pull_bytes_shipped;
    pulled_full = sim_result.pull_bytes_full;
  } else {
    start = std::chrono::steady_clock::now();
    do {
      std::vector<SpanBuffer> rep;
      const LoopRun run = RunWorkerLoop(spec, setup, &rep);
      check_loop(run);
      traced_cps.push_back(Ratio(static_cast<double>(run.clocks), run.wall_s));
      clocks += run.clocks;
      nnz += run.nnz;
      pulls += run.pulls;
      pulled += run.pulled_bytes;
      pulled_full += run.pulled_bytes_full;
      for (SpanBuffer& b : rep) buffers.push_back(std::move(b));
    } while (Elapsed(start) < phase_s);
  }
  const RegistrySnapshot after = RegistrySnapshot::Take(kRegistryFamilies);
  if (sim) {
    // The replay runs after the registry snapshot so its gather/scatter
    // histograms do not count twice.
    buffers.resize(2);
    nnz = ReplaySimCompute(setup, sim_result, &buffers[1]);
  }
  const int64_t retried = retries.Delta();
  tally.failed += retried;

  const SpanSummary s = Summarize(buffers);
  // The clock anatomy: where the traced time went, layer by layer.
  std::printf("%-20s %10s %12s %12s\n", "span", "n", "total_ms", "self_ms");
  for (int name = 0; name < kNumSpanNames; ++name) {
    const SpanStats& st = s.by_name[name];
    if (st.durations_us.empty()) continue;
    std::printf("%-20s %10zu %12.3f %12.3f\n", SpanNameString(name),
                st.durations_us.size(), st.total_us / 1e3, st.self_us / 1e3);
  }
  auto hist = [&](const std::string& name,
                  const std::vector<std::string>& labels = {}) {
    return RegistrySnapshot::Histogram(before, after, name, labels);
  };
  auto counter = [&](const std::string& name) {
    return static_cast<double>(RegistrySnapshot::Counter(before, after, name));
  };
  auto span_p50 = [&](SpanName name) {
    return Percentile(s.by_name[name].durations_us, 50);
  };
  auto span_tail = [&](SpanName name) {
    const std::vector<double>& v = s.by_name[name].durations_us;
    return Percentile(v, TailOf(static_cast<int64_t>(v.size())));
  };
  auto span_note = [&](SpanName name) {
    return TailNote(static_cast<int64_t>(s.by_name[name].durations_us.size()));
  };
  auto hist_tail = [&](const HistDelta& h) {
    return h.Quantile(TailOf(h.count) / 100.0);
  };
  const double dclocks = static_cast<double>(clocks);
  // On the simulator the replay covers one run, so its shares are taken
  // of one (the mean) RunSimulation span.
  const SpanStats& sim_spans = s.by_name[kRunSimulation];
  const double root_us =
      sim ? Ratio(sim_spans.total_us,
                  static_cast<double>(sim_spans.durations_us.size()))
          : s.by_name[kWorkerClock].total_us;
  const double run_clock_us = s.by_name[kRunClock].total_us;
  const double objective_us = s.by_name[kObjective].total_us;

  const HistDelta lock_wait = hist("ps.push_lock_wait_us");
  const HistDelta admission = hist("ps.admission_wait_us");
  const HistDelta bus = hist("bus.rpc_latency_us");
  const HistDelta handle_all = hist("rpc.handle_us");
  const HistDelta handle_push =
      hist("rpc.handle_us", {"op=push", "op=push_columnar"});
  const HistDelta handle_probe = hist("rpc.handle_us", {"op=can_advance"});
  const double cache_hits = counter("pull.cache_hit");

  const double engine = Median(engine_cps);
  const double untraced = Median(untraced_cps);
  const double traced = Median(traced_cps);
  // A host hiccup stretches a burst of consecutive clocks, so the tail is
  // the median over blocks of 1000 consecutive clocks of each block's p99.
  const BlockTail tail = BlockedTail(clock_ms, 1000);
  char tail_note[96];
  std::snprintf(tail_note, sizeof(tail_note),
                "engine loop; median of %lld blocks' p%g, n=%zu",
                static_cast<long long>(tail.blocks), tail.percentile,
                clock_ms.size());
  const std::vector<Metric> m = {
      // the worker clock's tail, engine loop untraced
      {"clock_ms_p99", tail.value, "ms", tail_note},
      // core / math
      {"core.run_clock_us.p50", span_p50(kRunClock), "us", ""},
      {"core.run_clock_us.p99", span_tail(kRunClock), "us",
       span_note(kRunClock)},
      {"core.run_clock_us.n",
       static_cast<double>(s.by_name[kRunClock].durations_us.size()),
       "count", sim ? "replayed" : ""},
      {"core.ns_per_nnz", Ratio(run_clock_us * 1e3, static_cast<double>(nnz)),
       "ns", ""},
      {"core.share", Ratio(run_clock_us, root_us), "ratio",
       sim ? "replayed RunClock / RunSimulation wall" : "of worker clocks"},
      {"math.gather_us.p50", hist("compute.gather_us").Quantile(0.5), "us",
       "registry"},
      {"math.scatter_us.p50", hist("compute.scatter_us").Quantile(0.5), "us",
       "registry"},
      {"eval.objective_us.p50", span_p50(kObjective), "us", ""},
      // ps
      {"client.push_us.p50", span_p50(kClientPush), "us", ""},
      {"client.push_us.p99", span_tail(kClientPush), "us",
       span_note(kClientPush)},
      {"client.pull_us.p50", span_p50(kClientPull), "us", ""},
      {"client.pull_us.p99", span_tail(kClientPull), "us",
       span_note(kClientPull)},
      {"client.pulls_per_clock", Ratio(static_cast<double>(pulls), dclocks),
       "ratio", ""},
      {"pull.bytes_ratio",
       Ratio(static_cast<double>(pulled), static_cast<double>(pulled_full)),
       "ratio", "shipped / full"},
      {"pull.cache_hit_ratio",
       Ratio(cache_hits, cache_hits + counter("pull.partitions_shipped")),
       "ratio", "hits / (hits + shipped)"},
      {"ps.push_apply_us.p50", hist("ps.push_apply_us").Quantile(0.5), "us",
       "registry"},
      {"ps.push_lock_wait_us.p50", lock_wait.Quantile(0.5), "us", "registry"},
      {"ps.push_lock_wait_us.p99", hist_tail(lock_wait), "us",
       TailNote(lock_wait.count)},
      {"ps.pull_piece_us.p50", hist("ps.pull_piece_us").Quantile(0.5), "us",
       "registry"},
      {"ps.admission_wait_us.p99", hist_tail(admission), "us",
       TailNote(admission.count)},
      {"push.bytes_per_clock", Ratio(counter("push.bytes_shipped"), dclocks),
       "bytes", ""},
      {"pull.bytes_per_clock", Ratio(counter("pull.bytes_shipped"), dclocks),
       "bytes", ""},
      // net
      {"net.push_us.p50", span_p50(kNetPush), "us", ""},
      {"net.push_us.p99", span_tail(kNetPush), "us", span_note(kNetPush)},
      {"net.pull_us.p50", span_p50(kNetPull), "us", ""},
      {"net.pull_us.p99", span_tail(kNetPull), "us", span_note(kNetPull)},
      {"net.admission_us.p50", span_p50(kNetAdmission), "us", ""},
      {"net.admission_us.p99", span_tail(kNetAdmission), "us",
       span_note(kNetAdmission)},
      {"net.probes_per_clock", Ratio(static_cast<double>(handle_probe.count),
                                     dclocks),
       "ratio", "rpc.can_advance / clocks"},
      {"net.messages_per_clock", Ratio(counter("bus.delivered"), dclocks),
       "ratio", "bus.delivered / clocks"},
      {"bus.rpc_latency_us.p50", bus.Quantile(0.5), "us", "registry"},
      {"bus.rpc_latency_us.p99", hist_tail(bus), "us", TailNote(bus.count)},
      {"rpc.handle_us.push.p50", handle_push.Quantile(0.5), "us",
       "push and push_columnar"},
      {"rpc.handle_us.pull_delta.p50",
       hist("rpc.handle_us", {"op=pull_delta"}).Quantile(0.5), "us", ""},
      {"rpc.handle_us.can_advance.p50", handle_probe.Quantile(0.5), "us", ""},
      {"net.unattributed_us",
       Ratio(bus.sum - handle_all.sum, static_cast<double>(bus.count)), "us",
       "bus latency minus handler time, per op"},
      {"rpc.client_retries", static_cast<double>(retried), "count", ""},
      {"error_rate",
       Ratio(static_cast<double>(tally.failed),
             static_cast<double>(tally.attempted)),
       "ratio", "(failed + retried) / attempted clocks"},
      // sim
      {"sim.wall_us_per_update",
       sim ? Ratio(root_us, static_cast<double>(sim_result.total_pushes))
           : 0.0,
       "us", ""},
      {"sim.compute_share",
       sim ? Ratio(run_clock_us + objective_us, root_us) : 0.0, "ratio",
       "replayed RunClock + ObjectiveSample / RunSimulation wall"},
      {"sim.pull_bytes_ratio",
       sim ? Ratio(static_cast<double>(sim_result.pull_bytes_shipped),
                   static_cast<double>(sim_result.pull_bytes_full))
           : 0.0,
       "ratio", ""},
      {"sim.peak_live_versions",
       static_cast<double>(sim_result.peak_live_versions), "count", ""},
      {"sim.peak_aux_bytes",
       static_cast<double>(sim_result.peak_aux_memory_bytes), "bytes", ""},
      {"sim.mean_staleness", sim ? sim_result.mean_staleness : 0.0, "clocks",
       ""},
      // engine breakdown
      {"worker.compute_share", Ratio(compute_s, worker_s), "ratio",
       sim ? "of simulated worker time" : "of wall x workers"},
      {"worker.comm_share", Ratio(comm_s, worker_s), "ratio", ""},
      {"worker.wait_share", Ratio(wait_s, worker_s), "ratio", ""},
      {"unattributed_share",
       sim ? 1.0 - Ratio(run_clock_us + objective_us, root_us)
           : s.unattributed_share,
       "ratio", "worker clock time no span covers"},
      // tracing
      {"trace.engine_clocks_per_s", engine, "1/s", "engine loop, untraced"},
      {"trace.untraced_clocks_per_s", untraced, "1/s",
       "benchmark loop, untraced"},
      {"trace.traced_clocks_per_s", traced, "1/s", "benchmark loop, traced"},
      {"trace.overhead", Ratio(untraced, traced) - 1.0, "ratio",
       "untraced / traced - 1"},
      {"trace.loop_gap", Ratio(engine, untraced) - 1.0, "ratio",
       "engine / benchmark loop - 1"},
  };
  return Finish(m, tally);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hetps_perfbench --workload <inproc-wide|rpc-narrow|"
                 "sim-hetero> --seed <n> --seconds <s> --trace <0|1> "
                 "[--git_sha <sha>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  hetps::SetLogLevel(hetps::LogLevel::kWarning);
  PrintEnv(args);
  return args.trace ? RunTraced(args, *spec) : RunEndToEnd(args, *spec);
}
