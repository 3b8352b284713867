// Pull-path trajectory bench — version-aware delta pulls vs. cache-less
// pulls (delta_pull off: no tags sent, every partition ships whole in
// its cheaper layout), measured at three layers:
//
//   1. "rpc": the real MessageBus/PsService/RpcWorkerClient stack on a
//      sparse-update SSP workload (every clock dirties ~1 of 32
//      partitions). Reports content bytes actually shipped vs. what
//      dense whole-model pulls would have cost, plus wall time for both
//      pull modes. This is the acceptance number: the reduction must be
//      >= 5x.
//   2. "sim": the event simulator's comm model with delta_pull on/off on
//      a CTR-like SSP run — shows the simulated job-time effect of
//      shipping only changed partitions.
//   3. "serializer": bulk (columnar/memcpy) wire throughput for dense
//      and sparse vectors, seeding the serialization trajectory.
//
// Writes BENCH_pull.json (argv[1] overrides the path) with schema
// hetps.bench.pull.v1; CI's bench-smoke job uploads it and asserts the
// reduction floor.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/consolidation.h"
#include "net/message_bus.h"
#include "net/ps_service.h"
#include "net/serializer.h"
#include "obs/json.h"
#include "ps/parameter_server.h"
#include "util/logging.h"

using namespace hetps;
using namespace hetps::bench;

namespace {

using WallClock = std::chrono::steady_clock;

double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

struct RpcRunStats {
  double wall_seconds = 0.0;
  int64_t pulled_bytes = 0;       // content bytes actually shipped
  int64_t pulled_bytes_full = 0;  // dense whole-model cost
};

/// Sparse-update SSP workload over the real RPC stack. Every worker's
/// clock-c update touches a small key band inside partition (c % dirty
/// cycle), so most partitions are clean on every pull — the regime the
/// version-aware path exists for (§6: clients re-fetch only partitions
/// that changed).
RpcRunStats RunRpcWorkload(bool delta_pull, int64_t dim, int num_workers,
                           int num_servers, int partitions_per_server,
                           int clocks) {
  PsOptions ps_opts;
  ps_opts.num_servers = num_servers;
  ps_opts.partitions_per_server = partitions_per_server;
  ps_opts.scheme = PartitionScheme::kRange;
  ps_opts.sync = SyncPolicy::Ssp(1);
  SspRule rule;
  ParameterServer ps(dim, num_workers, rule, ps_opts);
  MessageBus bus;
  PsService service(&ps, &bus, "ps");
  HETPS_CHECK(service.status().ok()) << service.status().ToString();

  const int parts = ps.partitioner().num_partitions();
  std::vector<int64_t> shipped(static_cast<size_t>(num_workers), 0);
  std::vector<int64_t> full(static_cast<size_t>(num_workers), 0);

  const auto start = WallClock::now();
  std::vector<std::thread> threads;
  for (int m = 0; m < num_workers; ++m) {
    threads.emplace_back([&, m] {
      RpcWorkerClient client(m, &bus, "ps", RpcRetryPolicy::NoRetry(),
                             /*push_window=*/0, delta_pull);
      const SyncPolicy sync = SyncPolicy::Ssp(1);
      std::vector<double> replica;
      int cp = 0;
      auto pull = [&] {
        const Status st = client.PullCached(&replica, &cp);
        HETPS_CHECK(st.ok()) << st.ToString();
      };
      pull();
      for (int c = 0; c < clocks; ++c) {
        // 32 keys inside one partition: the whole cluster dirties one of
        // `parts` partitions per clock.
        const int p = c % parts;
        const Partitioner& part = ps.partitioner();
        std::vector<int64_t> idx;
        std::vector<double> val;
        for (int64_t j = 0; j < 32 && j < part.PartitionDim(p); ++j) {
          idx.push_back(part.GlobalIndex(p, j));
          val.push_back(1e-3 * static_cast<double>(m + 1));
        }
        const Status st = client.Push(c, SparseVector(idx, val));
        HETPS_CHECK(st.ok()) << st.ToString();
        if (sync.NeedsPull(c, cp)) {
          HETPS_CHECK(client.WaitUntilCanAdvance(c + 1).ok());
          pull();
        }
      }
      shipped[static_cast<size_t>(m)] = client.pulled_bytes();
      full[static_cast<size_t>(m)] = client.pulled_bytes_full();
    });
  }
  for (auto& t : threads) t.join();

  RpcRunStats stats;
  stats.wall_seconds = SecondsSince(start);
  for (int m = 0; m < num_workers; ++m) {
    stats.pulled_bytes += shipped[static_cast<size_t>(m)];
    stats.pulled_bytes_full += full[static_cast<size_t>(m)];
  }
  return stats;
}

struct SerializerStats {
  double dense_write_gbps = 0.0;
  double dense_read_gbps = 0.0;
  double sparse_roundtrip_gbps = 0.0;
};

SerializerStats RunSerializerBench() {
  constexpr size_t kDim = 1 << 20;  // 8 MiB of payload per pass
  constexpr int kReps = 40;
  std::vector<double> dense(kDim);
  for (size_t i = 0; i < kDim; ++i) {
    dense[i] = static_cast<double>(i) * 1e-6;
  }
  SerializerStats s;
  {
    const auto t0 = WallClock::now();
    size_t sink = 0;
    for (int r = 0; r < kReps; ++r) {
      ByteWriter w;
      w.Reserve(8 + kDim * 8);
      w.WriteDenseVector(dense);
      sink += w.size();
    }
    const double secs = SecondsSince(t0);
    s.dense_write_gbps =
        static_cast<double>(sink) / secs / 1e9;
  }
  {
    ByteWriter w;
    w.WriteDenseVector(dense);
    const auto t0 = WallClock::now();
    size_t sink = 0;
    for (int r = 0; r < kReps; ++r) {
      ByteReader reader(w.buffer());
      std::vector<double> out;
      HETPS_CHECK(reader.ReadDenseVector(&out).ok());
      sink += out.size() * 8;
    }
    const double secs = SecondsSince(t0);
    s.dense_read_gbps = static_cast<double>(sink) / secs / 1e9;
  }
  {
    std::vector<int64_t> idx;
    std::vector<double> val;
    for (size_t i = 0; i < kDim / 4; ++i) {
      idx.push_back(static_cast<int64_t>(i) * 4);
      val.push_back(static_cast<double>(i));
    }
    const SparseVector sv(idx, val);
    const auto t0 = WallClock::now();
    size_t sink = 0;
    for (int r = 0; r < kReps; ++r) {
      ByteWriter w;
      w.WriteSparseVector(sv);
      ByteReader reader(w.buffer());
      SparseVector out;
      HETPS_CHECK(reader.ReadSparseVector(&out).ok());
      sink += w.size();
    }
    const double secs = SecondsSince(t0);
    s.sparse_roundtrip_gbps = static_cast<double>(sink) / secs / 1e9;
  }
  return s;
}

void AppendKv(std::string* out, const char* key, double v, bool last = false) {
  *out += "    \"";
  *out += key;
  *out += "\": ";
  AppendJsonDouble(out, v);
  *out += last ? "\n" : ",\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_pull.json";

  // --- 1. RPC stack, sparse-update SSP workload -----------------------
  constexpr int64_t kDim = 1 << 16;
  constexpr int kWorkers = 4;
  constexpr int kServers = 8;
  constexpr int kPartsPerServer = 4;
  constexpr int kClocks = 48;
  const RpcRunStats delta = RunRpcWorkload(
      /*delta_pull=*/true, kDim, kWorkers, kServers, kPartsPerServer,
      kClocks);
  const RpcRunStats full = RunRpcWorkload(
      /*delta_pull=*/false, kDim, kWorkers, kServers, kPartsPerServer,
      kClocks);
  const double reduction =
      delta.pulled_bytes > 0
          ? static_cast<double>(delta.pulled_bytes_full) /
                static_cast<double>(delta.pulled_bytes)
          : 0.0;

  TextTable rpc_table({"pull mode", "content bytes", "wall (s)"});
  rpc_table.AddRow({"delta (cached)", FmtInt(delta.pulled_bytes),
                    Fmt(delta.wall_seconds, 3)});
  rpc_table.AddRow({"full (baseline)", FmtInt(full.pulled_bytes),
                    Fmt(full.wall_seconds, 3)});
  std::printf(
      "=== Pull path over the RPC stack (SSP s=1, M=%d, %d partitions, "
      "~1 dirty/clock) ===\n%s\nbytes reduction: %.1fx (acceptance "
      "floor: 5x)\n\n",
      kWorkers, kServers * kPartsPerServer, rpc_table.ToString().c_str(),
      reduction);

  // --- 2. Simulator comm model ----------------------------------------
  // CTR-like data (very sparse rows, strong popularity skew) under range
  // partitioning: the cold feature tail concentrates in high partitions,
  // which therefore go clean between a worker's pulls — the regime where
  // version-aware pulls pay off in a real run, not just a microbench.
  Dataset dataset = MakeCtrLike(0.25);
  auto loss = MakeLoss("logistic");
  const ClusterConfig cluster = ClusterConfig::WithStragglers(
      /*num_workers=*/8, /*num_servers=*/4, /*hl=*/2.0);
  SimResult sim[2];
  for (int d = 0; d <= 1; ++d) {
    SimOptions options;
    options.sync = SyncPolicy::Ssp(2);
    options.max_clocks = 30;
    options.stop_on_convergence = false;
    options.partitions_per_server = 8;
    options.scheme = PartitionScheme::kRange;
    options.delta_pull = d != 0;
    SspRule rule;
    FixedRate sched(0.5);
    sim[d] = RunSimulation(dataset, cluster, rule, sched, *loss, options);
  }
  // Cross-run ratio: what the tag-less run shipped (every partition
  // whole, in its cheaper layout) over what the tag-aware run shipped.
  const double sim_reduction =
      sim[1].pull_bytes_shipped > 0
          ? static_cast<double>(sim[0].pull_bytes_shipped) /
                static_cast<double>(sim[1].pull_bytes_shipped)
          : 0.0;
  TextTable sim_table(
      {"comm model", "pull bytes", "sim time (s)", "final objective"});
  sim_table.AddRow({"delta", FmtInt(sim[1].pull_bytes_shipped),
                    Fmt(sim[1].total_sim_seconds, 1),
                    Fmt(sim[1].final_objective, 4)});
  sim_table.AddRow({"full", FmtInt(sim[0].pull_bytes_shipped),
                    Fmt(sim[0].total_sim_seconds, 1),
                    Fmt(sim[0].final_objective, 4)});
  std::printf(
      "=== Simulated comm model (CTR-like, range-partitioned, SSP s=2, "
      "M=8, hl=2) ===\n"
      "%s\nsimulated bytes reduction: %.1fx\n\n",
      sim_table.ToString().c_str(), sim_reduction);

  // --- 3. Serializer bulk throughput ----------------------------------
  const SerializerStats ser = RunSerializerBench();
  std::printf(
      "=== Serializer bulk paths ===\ndense write %.2f GB/s, dense read "
      "%.2f GB/s, sparse roundtrip %.2f GB/s\n\n",
      ser.dense_write_gbps, ser.dense_read_gbps,
      ser.sparse_roundtrip_gbps);

  // --- BENCH_pull.json -------------------------------------------------
  std::string json;
  json += "{\n";
  json += "  \"bench\": \"pull_path\",\n";
  json += "  \"schema\": \"hetps.bench.pull.v1\",\n";
  json += "  \"rpc\": {\n";
  AppendKv(&json, "pulled_bytes", static_cast<double>(delta.pulled_bytes));
  AppendKv(&json, "pulled_bytes_full",
           static_cast<double>(delta.pulled_bytes_full));
  AppendKv(&json, "reduction", reduction);
  AppendKv(&json, "wall_seconds_delta", delta.wall_seconds);
  AppendKv(&json, "wall_seconds_full", full.wall_seconds, /*last=*/true);
  json += "  },\n";
  json += "  \"sim\": {\n";
  AppendKv(&json, "pull_bytes_delta",
           static_cast<double>(sim[1].pull_bytes_shipped));
  AppendKv(&json, "pull_bytes_full",
           static_cast<double>(sim[0].pull_bytes_shipped));
  AppendKv(&json, "reduction", sim_reduction);
  AppendKv(&json, "sim_seconds_delta", sim[1].total_sim_seconds);
  AppendKv(&json, "sim_seconds_full", sim[0].total_sim_seconds);
  AppendKv(&json, "final_objective_delta", sim[1].final_objective);
  AppendKv(&json, "final_objective_full", sim[0].final_objective,
           /*last=*/true);
  json += "  },\n";
  json += "  \"serializer\": {\n";
  AppendKv(&json, "dense_write_gbps", ser.dense_write_gbps);
  AppendKv(&json, "dense_read_gbps", ser.dense_read_gbps);
  AppendKv(&json, "sparse_roundtrip_gbps", ser.sparse_roundtrip_gbps,
           /*last=*/true);
  json += "  }\n";
  json += "}\n";
  std::ofstream out(out_path);
  out << json;
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (reduction < 5.0) {
    std::printf("FAIL: pulled-bytes reduction %.2fx below the 5x "
                "acceptance floor\n", reduction);
    return 1;
  }
  return 0;
}
