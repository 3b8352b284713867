#include "engine/worker_loop.h"

#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace hetps {
namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

LocalWorkerSgd MakeSgd(const WorkerLoop& loop, int worker) {
  const DataShard& shard = loop.shards[static_cast<size_t>(worker)];
  LocalWorkerSgd::Options options;
  options.batch_size = LocalWorkerSgd::BatchSizeForFraction(
      shard.size(), loop.spec->batch_fraction);
  options.l2 = loop.spec->l2;
  return LocalWorkerSgd(loop.dataset, shard, loop.loss, loop.schedule,
                        options);
}

/// RunWorker without the exit bookkeeping.
Status RunClocks(const WorkerLoop& loop, int m, Workload* workload,
                 PsClient* client, double* compute_seconds) {
  const TrainSpec& spec = *loop.spec;
  const BusPlanes* planes = loop.planes;
  const size_t mi = static_cast<size_t>(m);
  const MetricLabels labels = {{"worker", std::to_string(m)}};
  // Per-clock phase histograms: the end-of-run breakdown gauges only
  // show totals, but the TimeSeriesRecorder needs per-window deltas.
  MetricsRegistry& metrics = GlobalMetrics();
  HistogramMetric* iter_us = metrics.histogram("worker.iter_us", labels);
  HistogramMetric* compute_us = metrics.histogram("worker.compute_us", labels);
  HistogramMetric* wait_us = metrics.histogram("worker.wait_us", labels);
  TraceRecorder::Global().NameThisThread("worker-" + std::to_string(m));
  const double delay = loop.delays[mi];

  // A (re)starting worker pulls the latest parameter from the PS. If the
  // workload names the keys it writes, each later pull refreshes the
  // replica in place, rewriting only the keys it changed and the keys
  // compute wrote since the previous pull.
  std::vector<double> replica;
  std::vector<int64_t> written;
  HETPS_RETURN_NOT_OK(client->PullCached(&replica, nullptr, &written));
  const int end_clock = loop.start_clock + spec.max_clocks;
  for (int c = loop.start_clock; c < end_clock; ++c) {
    if (planes != nullptr) {
      const FaultPlan& faults = planes->faults;
      if (m == faults.fault_worker && c == faults.kill_at_clock) {
        if (faults.hang_seconds <= 0.0) {
          // Crash-stop: the worker stops sending, forever. Not an error:
          // the run's verdict is the survivors' business.
          HETPS_LOG(Warning) << "fault injection: killing worker " << m
                             << " before clock " << c;
          FlightRecorder::Global().Record("fault.kill", m, c);
          return Status::OK();
        }
        // Hang for hang_seconds of liveness time, which only the other
        // workers' requests advance. Own eviction ends the hang: once
        // evicted, ticks may stop and the resume time never come.
        FlightRecorder::Global().Record("fault.hang", m, c,
                                        faults.hang_seconds);
        const double resume_at = planes->liveness_now() + faults.hang_seconds;
        while (planes->liveness_now() < resume_at && !planes->evicted(m)) {
          std::this_thread::yield();
        }
      }
      // Copied at clock boundaries, so a batch never changes mid-compute.
      if (planes->refresh_shard) planes->refresh_shard(m);
    }
    HETPS_TRACE_SPAN2("worker.clock", "worker", m, "clock", c);
    const SteadyClock::time_point iter_start = SteadyClock::now();
    // The pull decision (Algorithm 1 line 8) is known before the clock
    // runs, so a prefetch can overlap the wait and pull with compute.
    const bool pull = spec.sync.NeedsPull(c, client->cached_cmin());
    if (loop.prefetch && pull) {
      HETPS_RETURN_NOT_OK(client->StartPrefetch(c + 1));
    }
    SparseVector update;
    double compute_secs = 0.0;
    {
      // The injected delay emulates a slow CPU, so every timing report
      // sees a genuine slowdown.
      HETPS_TRACE_SPAN1("worker.compute", "worker", m);
      const SteadyClock::time_point compute_start = SteadyClock::now();
      if (delay > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      }
      workload->RunClock(c, &replica, &update);
      compute_secs = SecondsSince(compute_start);
      *compute_seconds += compute_secs;
      compute_us->RecordInt(static_cast<int64_t>(compute_secs * 1e6));
    }
    const std::vector<int64_t>* keys = workload->written_keys();
    if (keys != nullptr) {
      written.insert(written.end(), keys->begin(), keys->end());
    }
    HETPS_RETURN_NOT_OK(client->Push(c, update));
    if (planes != nullptr && planes->report_clock) {
      HETPS_RETURN_NOT_OK(client->ReportClock(c, compute_secs));
    }
    if (m == 0 && loop.trace != nullptr) {
      loop.trace->push_back(loop.Objective(replica));
      if (planes != nullptr && planes->after_eval) {
        planes->after_eval(c + 1 - loop.start_clock);
      }
    }
    if (pull) {
      const double waited = client->breakdown().wait_seconds;
      if (loop.prefetch) {
        HETPS_TRACE_SPAN1("worker.wait", "worker", m);
        HETPS_RETURN_NOT_OK(client->FinishPrefetch(&replica));
      } else {
        {
          HETPS_TRACE_SPAN1("worker.wait", "worker", m);
          HETPS_RETURN_NOT_OK(client->WaitUntilCanAdvance(c + 1));
        }
        HETPS_RETURN_NOT_OK(client->PullCached(
            &replica, nullptr, keys != nullptr ? &written : nullptr));
      }
      written.clear();
      wait_us->RecordInt(static_cast<int64_t>(
          (client->breakdown().wait_seconds - waited) * 1e6));
    }
    iter_us->RecordInt(std::chrono::duration_cast<std::chrono::microseconds>(
                           SteadyClock::now() - iter_start)
                           .count());
    if (m == 0 && spec.on_epoch) spec.on_epoch(c + 1 - loop.start_clock);
  }
  // The last clocks' pushes may still be in flight, and a failure latched
  // after the final Push would otherwise go unseen.
  return client->Flush();
}

}  // namespace

double WorkerLoop::Objective(const std::vector<double>& weights) const {
  const size_t n =
      spec->eval_sample == 0 ? dataset->size() : spec->eval_sample;
  return dataset->ObjectiveSample(*loss, weights, spec->l2, n);
}

Status TrainSpec::Validate() const {
  HETPS_RETURN_NOT_OK(RunSpec::Validate());
  if (num_workers <= 0 || num_servers <= 0) {
    return Status::InvalidArgument("need positive worker/server counts");
  }
  if (push_window < 0) return Invalid("push_window must be >= 0", push_window);
  if (push_parallelism < 0) {
    return Invalid("push_parallelism must be >= 0", push_parallelism);
  }
  if (injected_compute_delay.size() > static_cast<size_t>(num_workers)) {
    return Status::InvalidArgument(
        "injected_compute_delay has " +
        std::to_string(injected_compute_delay.size()) + " entries for " +
        std::to_string(num_workers) + " workers");
  }
  for (double delay : injected_compute_delay) {
    if (!(std::isfinite(delay) && delay >= 0.0)) {
      return Invalid("injected_compute_delay entries must be >= 0", delay);
    }
  }
  return Status::OK();
}

Status ValidateForDataset(const TrainSpec& spec, const Dataset& dataset) {
  HETPS_RETURN_NOT_OK(spec.Validate());
  return ValidateClusterForDataset(spec.num_workers, spec.num_servers,
                                   dataset);
}

Result<WorkerLoop> PrepareWorkerLoop(const Dataset& dataset,
                                     const LossFunction& loss,
                                     const LearningRateSchedule& schedule,
                                     const TrainSpec& spec) {
  HETPS_RETURN_NOT_OK(ValidateForDataset(spec, dataset));
  const size_t workers = static_cast<size_t>(spec.num_workers);
  WorkerLoop loop;
  loop.dataset = &dataset;
  loop.loss = &loss;
  loop.schedule = &schedule;
  loop.spec = &spec;
  loop.shards =
      SplitData(dataset.size(), workers, ShardingPolicy::kContiguous);
  loop.delays = spec.injected_compute_delay;
  loop.delays.resize(workers, 0.0);
  loop.ps_options =
      spec.MakePsOptions(spec.num_servers, spec.push_parallelism);
  if (spec.scheme != PartitionScheme::kHash) {
    loop.ps_options.range_cuts = Partitioner::HeldKeyCuts(
        dataset.HeldFeatures(),
        Partitioner::NumPartitions(dataset.dimension(), spec.num_servers,
                                   spec.partitions_per_server));
  }
  return loop;
}

SgdWorkload::SgdWorkload(const WorkerLoop& loop, int worker)
    : sgd_(MakeSgd(loop, worker)) {}

Status RunWorker(const WorkerLoop& loop, int worker, Workload* workload,
                 PsClient* client, WorkerTimeBreakdown* breakdown) {
  double compute_seconds = 0.0;
  Status st = RunClocks(loop, worker, workload, client, &compute_seconds);
  // An RPC rejected because *this* worker was evicted is the liveness
  // plane working as designed (e.g. a hung worker waking up after its
  // eviction), not a run failure: the survivors decide the verdict.
  if (st.IsFailedPrecondition() && loop.planes != nullptr &&
      loop.planes->evicted(worker)) {
    st = Status::OK();
  }
  *breakdown = client->breakdown();
  breakdown->compute_seconds = compute_seconds;
  RecordBreakdown(worker, *breakdown);
  return st;
}

}  // namespace hetps
