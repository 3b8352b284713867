// Example: the "real system" path — workers talk to the parameter-server
// service through serialized messages on the in-process bus (the
// prototype's Netty transport), and the job survives a parameter-server
// crash by restoring from a checkpoint (Appendix D failure recovery:
// master/PS recover from the checkpoint, workers restart and re-pull).
//
//   ./build/examples/rpc_cluster

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/dyn_sgd.h"
#include "core/learning_rate.h"
#include "core/sgd_compute.h"
#include "data/synthetic.h"
#include "net/ps_service.h"
#include "ps/checkpoint.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace hetps;

namespace {

// One phase of distributed training over RPC: `clocks` SSP clocks from
// `start_clock` for every worker.
void RunPhase(MessageBus* bus, const Dataset& dataset,
              const std::vector<DataShard>& shards,
              const LossFunction& loss, int workers, int start_clock,
              int clocks) {
  FixedRate sched(0.5);
  std::vector<std::thread> threads;
  for (int m = 0; m < workers; ++m) {
    threads.emplace_back([&, m] {
      RpcWorkerClient client(m, bus, "ps");
      LocalWorkerSgd::Options opts;
      opts.batch_size = 16;
      LocalWorkerSgd sgd(&dataset, shards[static_cast<size_t>(m)], &loss,
                         &sched, opts);
      // A (re)started worker pulls the latest parameter from the PS.
      std::vector<double> replica;
      int cp = 0;
      Status st = client.PullCached(&replica, &cp);
      HETPS_CHECK(st.ok()) << st.ToString();
      const SyncPolicy ssp = SyncPolicy::Ssp(2);
      for (int c = start_clock; c < start_clock + clocks; ++c) {
        SparseVector update;
        sgd.RunClock(c, &replica, &update);
        HETPS_CHECK(client.Push(c, update).ok());
        if (ssp.NeedsPull(c, cp)) {
          HETPS_CHECK(client.WaitUntilCanAdvance(c + 1).ok());
          HETPS_CHECK(client.PullCached(&replica, &cp).ok());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace

int main() {
  Dataset dataset = GenerateSynthetic(UrlLikeConfig(0.5));
  Rng rng(4);
  dataset.Shuffle(&rng);
  LogisticLoss loss;
  const int workers = 3;
  const auto shards =
      SplitData(dataset.size(), workers, ShardingPolicy::kContiguous);

  DynSgdRule rule;
  PsOptions ps_opts;
  ps_opts.num_servers = 2;
  ps_opts.sync = SyncPolicy::Ssp(2);
  const std::string ckpt = "/tmp/hetps_rpc_cluster.ckpt";

  // --- Phase 1: train 6 clocks over RPC, then checkpoint the PS. ---
  {
    MessageBus bus;
    ParameterServer ps(dataset.dimension(), workers, rule, ps_opts);
    PsService service(&ps, &bus, "ps");
    HETPS_CHECK(service.status().ok());
    RunPhase(&bus, dataset, shards, loss, workers, 0, 6);
    std::printf("phase 1 (clocks 0-5): objective %.4f, %lld messages\n",
                dataset.Objective(loss, ps.Snapshot(), 1e-4),
                static_cast<long long>(bus.delivered_count()));
    HETPS_CHECK(SaveCheckpointToFile(ps, ckpt).ok());
    std::printf("checkpoint written; simulating a PS crash...\n");
  }  // the whole server fabric is destroyed here

  // --- Phase 2: a fresh PS restores the checkpoint; workers restart
  //     and continue from clock 6. ---
  {
    MessageBus bus;
    ParameterServer ps(dataset.dimension(), workers, rule, ps_opts);
    HETPS_CHECK(RestoreCheckpointFromFile(&ps, ckpt).ok());
    PsService service(&ps, &bus, "ps");
    HETPS_CHECK(service.status().ok());
    std::printf("restored: cmin=%d, objective %.4f\n", ps.cmin(),
                dataset.Objective(loss, ps.Snapshot(), 1e-4));
    RunPhase(&bus, dataset, shards, loss, workers, 6, 6);
    std::printf("phase 2 (clocks 6-11): objective %.4f\n",
                dataset.Objective(loss, ps.Snapshot(), 1e-4));
  }
  std::remove(ckpt.c_str());
  return 0;
}
