#include "engine/threaded_trainer.h"

#include <thread>

#include "ps/parameter_server.h"
#include "ps/worker_client.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace hetps {

ThreadedTrainResult TrainThreaded(const Dataset& dataset,
                                  const LossFunction& loss,
                                  const LearningRateSchedule& schedule,
                                  const ConsolidationRule& rule_proto,
                                  const ThreadedTrainerOptions& options) {
  WorkerLoop loop =
      PrepareWorkerLoop(dataset, loss, schedule, options).value();

  PsOptions ps_opts;
  ps_opts.num_servers = options.num_servers;
  ps_opts.partitions_per_server = options.partitions_per_server;
  ps_opts.scheme = options.scheme;
  ps_opts.sync = options.sync;
  ps_opts.partition_sync = options.partition_sync;
  ps_opts.update_filter_epsilon = options.update_filter_epsilon;
  ps_opts.push_parallelism = options.push_parallelism;
  ParameterServer ps(dataset.dimension(), options.num_workers, rule_proto,
                     ps_opts);

  ThreadedTrainResult result;
  loop.prefetch = options.prefetch;
  loop.trace = &result.objective_per_clock;
  // Per-worker slots, each written only by its own thread before join.
  result.worker_breakdown.resize(static_cast<size_t>(options.num_workers));
  Stopwatch watch;
  std::vector<std::thread> threads;
  for (int m = 0; m < options.num_workers; ++m) {
    threads.emplace_back([&, m] {
      WorkerClient client(m, &ps, options.delta_pull, options.push_window);
      const Status st = RunWorker(
          loop, m, &client, &result.worker_breakdown[static_cast<size_t>(m)]);
      HETPS_CHECK(st.ok()) << "worker " << m << ": " << st.ToString();
    });
  }
  for (auto& t : threads) t.join();
  result.wall_seconds = watch.ElapsedSeconds();
  result.weights = ps.Snapshot();
  result.total_pushes =
      static_cast<int64_t>(options.num_workers) * options.max_clocks;
  result.final_objective = loop.Objective(result.weights);
  return result;
}

}  // namespace hetps
