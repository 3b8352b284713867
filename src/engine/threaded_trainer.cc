#include "engine/threaded_trainer.h"

#include <thread>

#include "ps/parameter_server.h"
#include "ps/worker_client.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace hetps {
namespace {

/// One thread per worker m runs RunWorker(loop, m, workloads[m]) over a
/// WorkerClient of `ps`; all are joined. Returns the first failed
/// worker's status.
Status RunWorkerThreads(const WorkerLoop& loop, ParameterServer* ps,
                        const std::vector<std::unique_ptr<Workload>>& workloads,
                        std::vector<WorkerTimeBreakdown>* breakdowns) {
  const size_t workers = workloads.size();
  // Per-worker slots, each written only by its own thread before join.
  std::vector<Status> status(workers);
  breakdowns->assign(workers, WorkerTimeBreakdown());
  std::vector<std::thread> threads;
  for (size_t m = 0; m < workers; ++m) {
    threads.emplace_back([&, m] {
      const int worker = static_cast<int>(m);
      WorkerClient client(worker, ps, loop.spec->delta_pull,
                          loop.spec->push_window);
      status[m] = RunWorker(loop, worker, workloads[m].get(), &client,
                            &(*breakdowns)[m]);
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& st : status) HETPS_RETURN_NOT_OK(st);
  return Status::OK();
}

}  // namespace

Status ThreadedTrainerOptions::Validate() const {
  HETPS_RETURN_NOT_OK(TrainSpec::Validate());
  if (rebalance) {
    return Status::InvalidArgument(
        "the threaded runtime has no rebalancing plane (use the rpc "
        "runtime)");
  }
  if (heartbeat_timeout_seconds > 0.0) {
    return Status::InvalidArgument(
        "the threaded runtime has no liveness plane, so "
        "heartbeat_timeout_seconds must be 0 (use the rpc runtime)");
  }
  return Status::OK();
}

ThreadedTrainResult TrainThreaded(const Dataset& dataset,
                                  const LossFunction& loss,
                                  const LearningRateSchedule& schedule,
                                  const ConsolidationRule& rule_proto,
                                  const ThreadedTrainerOptions& options) {
  WorkerLoop loop =
      PrepareWorkerLoop(dataset, loss, schedule, options).value();

  ParameterServer ps(dataset.dimension(), options.num_workers, rule_proto,
                     loop.ps_options);

  ThreadedTrainResult result;
  loop.prefetch = options.prefetch;
  loop.trace = &result.objective_per_clock;
  std::vector<std::unique_ptr<Workload>> workloads;
  for (int m = 0; m < options.num_workers; ++m) {
    workloads.push_back(std::make_unique<SgdWorkload>(loop, m));
  }
  Stopwatch watch;
  const Status st =
      RunWorkerThreads(loop, &ps, workloads, &result.worker_breakdown);
  HETPS_CHECK(st.ok()) << st.ToString();
  result.wall_seconds = watch.ElapsedSeconds();
  result.weights = ps.Snapshot();
  result.total_pushes =
      static_cast<int64_t>(options.num_workers) * options.max_clocks;
  result.final_objective = loop.Objective(result.weights);
  return result;
}

Status RunModelWorkers(ParameterServer* ps, int max_clocks,
                       const std::vector<std::unique_ptr<Workload>>& workloads) {
  TrainSpec spec;
  spec.sync = ps->options().sync;
  spec.max_clocks = max_clocks;
  WorkerLoop loop;
  loop.spec = &spec;
  loop.delays.assign(workloads.size(), 0.0);
  loop.start_clock = 1;
  std::vector<WorkerTimeBreakdown> breakdowns;
  return RunWorkerThreads(loop, ps, workloads, &breakdowns);
}

}  // namespace hetps
