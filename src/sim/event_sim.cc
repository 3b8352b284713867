#include "sim/event_sim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/sgd_compute.h"
#include "data/sharding.h"
#include "net/heartbeat.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "ps/parameter_server.h"
#include "ps/replica_cache.h"
#include "ps/shard_plane.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace hetps {

std::string SimResult::Summary() const {
  std::ostringstream os;
  os << (converged ? "converged" : "NOT converged")
     << " run_time=" << run_time_seconds << "s updates="
     << updates_to_converge << " per_update=" << per_update_seconds
     << "s minobj=" << min_objective << " varobj=" << var_objective
     << " clocks_to_converge=" << clocks_to_converge;
  return os.str();
}

namespace {

/// Workers start up to this many nominal clock-lengths apart (uniform),
/// modelling staggered container start and data loading. Starting all at
/// t=0 phase-locks homogeneous workers into a synchronized overshoot
/// pattern no real deployment exhibits.
constexpr double kStartStaggerClocks = 0.9;

enum class EventType : int {
  kStartClock = 0,
  kPushSend = 1,
  kPushArrive = 2,
  kPullRequest = 3,
  kPullPieceRead = 4,
  kPullResponse = 5,
  /// Periodic heartbeat sweep (liveness plane): suspects and evicts
  /// workers whose last event is older than the timeout.
  kHeartbeatSweep = 6,
};

struct Event {
  double time;
  int64_t seq;
  EventType type;
  int worker;
  int64_t payload;  // push-piece id for kPushArrive; unused otherwise
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// The simulator shares the Chrome-trace schema with the real runtimes
/// but stamps *virtual* time: pid 1 marks simulated tracks (pid 0 is the
/// process's wall-clock tracks) and tid is the simulated worker id, so a
/// simulated run and a threaded run load side by side in Perfetto.
constexpr uint32_t kSimPid = 1;

/// Simulated *server* tracks live far above the worker tids so the two
/// families never collide (a cluster with 10000 workers is outside this
/// simulator's regime).
constexpr uint32_t kSimServerTidBase = 10000;

void EmitSimSpanTid(const char* name, uint32_t tid, double start_seconds,
                    double dur_seconds, const char* k0 = nullptr,
                    double v0 = 0.0) {
  TraceRecorder& rec = TraceRecorder::Global();
  if (!rec.enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.phase = 'X';
  ev.pid = kSimPid;
  ev.tid = tid;
  ev.ts_us = static_cast<int64_t>(start_seconds * 1e6);
  ev.dur_us = static_cast<int64_t>(dur_seconds * 1e6);
  if (k0 != nullptr) {
    ev.num_args = 1;
    ev.arg_key[0] = k0;
    ev.arg_val[0] = v0;
  }
  rec.AppendExplicit(ev);
}

void EmitSimSpan(const char* name, int worker, double start_seconds,
                 double dur_seconds, const char* k0 = nullptr,
                 double v0 = 0.0) {
  EmitSimSpanTid(name, static_cast<uint32_t>(worker), start_seconds,
                 dur_seconds, k0, v0);
}

/// One half of a causal flow arrow ('s' starts it, 'f' ends it). The
/// event must fall *inside* the slice it should bind to — Chrome binds a
/// flow event to the slice enclosing its timestamp on that track — so
/// callers pass a mid-slice timestamp, not the slice edge.
void EmitSimFlow(char phase, uint64_t flow_id, uint32_t tid,
                 double ts_seconds) {
  TraceRecorder& rec = TraceRecorder::Global();
  if (!rec.enabled()) return;
  TraceEvent ev;
  ev.name = "rpc";
  ev.phase = phase;
  ev.pid = kSimPid;
  ev.tid = tid;
  ev.ts_us = static_cast<int64_t>(ts_seconds * 1e6);
  ev.flow_id = flow_id;
  rec.AppendExplicit(ev);
}

struct PushPieceMsg {
  int partition;
  int worker;
  int clock;
  SparseVector piece;
  bool last;
  /// Causal-flow correlation, carried only by the last piece (0 =
  /// untraced): the flow minted inside the worker.push slice finishes in
  /// the server's rpc.handle slice when this piece lands.
  uint64_t flow_id = 0;
  double send_time = 0.0;
};

struct WorkerSim {
  std::unique_ptr<LocalWorkerSgd> sgd;
  std::vector<double> replica;
  int clock = 0;
  int cp = 0;  // cached cmin (Algorithm 1's cp)
  bool done = false;
  /// Crash-stopped by fault injection: emits no further events.
  bool killed = false;
  double pull_request_time = 0.0;
  int pending_next_clock = 0;
  int pending_cmin = 0;
  // Version limit captured at pull grant (partition sync); -1 = live.
  int64_t pending_pull_version = -1;
  // The clock computing on the pool from this worker's kStartClock to
  // its kPushSend (invalid when none is). Its RunClock writes `replica`
  // and `pending_update` and reads the shard, so the event loop touches
  // none of them until the future is joined; the shard changes only at
  // the next kStartClock (ShardPlane::Refresh).
  std::future<void> computing;
  SparseVector pending_update;
  int pending_push_clock = 0;
  // Bounded pipeline (push_window >= 1): arrival times of this worker's
  // in-flight pushes, oldest first. Monotone because per-pair link FIFO
  // makes a push's last arrival non-decreasing across clocks.
  std::deque<double> outstanding_push_arrivals;
  // Pristine copy of the last server state this worker's pulls received,
  // with the content tags it was served under — the real clients' cache.
  // The replica drifts during compute, so unchanged partitions must be
  // re-read from this cache, never from the replica.
  std::optional<ReplicaCache> cache;
  // Pieces the in-flight pull has read so far, applied to the cache at
  // the pull response.
  std::vector<PartitionPull> pending_pieces;
  Rng rng{0};
  WorkerTimeBreakdown breakdown;
  // Live per-clock phase histograms in virtual µs — same series the
  // threaded trainer records, so time-series windows from a simulated
  // and a threaded run are directly comparable.
  HistogramMetric* wait_us = nullptr;
  HistogramMetric* compute_us = nullptr;
};

/// Threads for one simulation's compute pool: one per core, no more
/// than there are workers to keep busy (RunSimulation checks there is
/// at least one).
size_t ComputePoolSize(int num_workers) {
  return std::min<size_t>(std::max(1u, std::thread::hardware_concurrency()),
                          static_cast<size_t>(num_workers));
}

/// One simulated run. Time advances through the event queue on one
/// thread, which also runs consolidation, convergence checks and every
/// callback; only the workers' RunClocks run on the compute pool
/// (DESIGN.md §6, "The simulator's compute pool").
class Simulation {
 public:
  Simulation(const Dataset& dataset, const ClusterConfig& cluster,
             const ConsolidationRule& rule_proto,
             const LearningRateSchedule& schedule, const LossFunction& loss,
             const SimOptions& options, StragglerMitigation* mitigation)
      : dataset_(dataset),
        cluster_(cluster),
        schedule_(schedule),
        loss_(loss),
        options_(options),
        // The simulator applies the client-side filter itself (it needs
        // the filtered size for transmission costs) and pushes pieces.
        ps_(std::make_unique<ParameterServer>(
            dataset.dimension(), cluster.num_workers, rule_proto,
            options.MakePsOptions(cluster.num_servers,
                                  /*push_parallelism=*/1))),
        // The balancer and a mitigation baseline would fight over the
        // same shards: the plane refuses to run both.
        plane_(ps_.get(),
               SplitData(dataset.size(),
                         static_cast<size_t>(cluster.num_workers),
                         ShardingPolicy::kContiguous),
               options.rebalance ? &options.balancer : nullptr, mitigation),
        compute_pool_(ComputePoolSize(cluster.num_workers)) {
    net_rng_ = Rng(Mix64(options.seed ^ 0xfeedULL));

    server_busy_.assign(static_cast<size_t>(cluster.num_servers), 0.0);
    pair_last_arrival_.assign(
        static_cast<size_t>(cluster.num_workers) *
            static_cast<size_t>(cluster.num_servers),
        0.0);

    Rng master_rng(options.seed);
    workers_.resize(static_cast<size_t>(cluster.num_workers));
    for (int m = 0; m < cluster.num_workers; ++m) {
      WorkerSim& w = workers_[static_cast<size_t>(m)];
      DataShard shard = plane_.entitlement(m);
      LocalWorkerSgd::Options sgd_opts;
      sgd_opts.batch_size = LocalWorkerSgd::BatchSizeForFraction(
          shard.size(), options.batch_fraction);
      sgd_opts.l2 = options.l2;
      w.sgd = std::make_unique<LocalWorkerSgd>(
          &dataset, std::move(shard), &loss, &schedule, sgd_opts);
      w.replica.assign(static_cast<size_t>(dataset.dimension()), 0.0);
      w.cache.emplace(ps_->partitioner());
      w.wait_us = GlobalMetrics().histogram(
          "worker.wait_us", {{"worker", std::to_string(m)}});
      w.compute_us = GlobalMetrics().histogram(
          "worker.compute_us", {{"worker", std::to_string(m)}});
      w.rng = master_rng.Fork(static_cast<uint64_t>(m));
      // Stagger start-up (container launch + data loading differ across
      // workers in any real deployment).
      const double nominal_clock =
          static_cast<double>(w.sgd->ShardNnz()) * cluster.seconds_per_nnz;
      const double stagger =
          w.rng.NextDouble() * kStartStaggerClocks * nominal_clock;
      Schedule(stagger, EventType::kStartClock, m, 0);
    }
    if (options.heartbeat_timeout_seconds > 0.0) {
      monitor_ = std::make_unique<HeartbeatMonitor>(
          options.heartbeat_timeout_seconds);
      for (int m = 0; m < cluster.num_workers; ++m) {
        monitor_->Register(NodeName(m), 0.0);
      }
      Schedule(options.heartbeat_timeout_seconds / 2.0,
               EventType::kHeartbeatSweep, 0, 0);
    }

    // Name the simulated tracks so Perfetto shows "worker-3" instead of
    // a bare tid (the real runtimes name their threads the same way).
    TraceRecorder& rec = TraceRecorder::Global();
    rec.SetProcessName(kSimPid, "hetps sim (virtual time)");
    for (int m = 0; m < cluster.num_workers; ++m) {
      rec.SetThreadName(kSimPid, static_cast<uint32_t>(m),
                        "worker-" + std::to_string(m));
    }
    for (int s = 0; s < cluster.num_servers; ++s) {
      rec.SetThreadName(kSimPid, kSimServerTidBase +
                                     static_cast<uint32_t>(s),
                        "server-" + std::to_string(s));
    }
    // Flight-recorder events raised during the run (kills, suspicions,
    // evictions, cmin repairs) must carry *virtual* timestamps to line
    // up with the simulated trace; the destructor restores wall time.
    FlightRecorder::Global().SetNowFn(
        [this] { return static_cast<int64_t>(now_ * 1e6); });
  }

  ~Simulation() { FlightRecorder::Global().SetNowFn(nullptr); }

  SimResult Run() {
    while (!queue_.empty() && !stop_) {
      const Event ev = queue_.top();
      queue_.pop();
      now_ = ev.time;
      if (now_ > options_.max_sim_seconds) break;
      switch (ev.type) {
        case EventType::kStartClock:
          HandleStartClock(ev.worker);
          break;
        case EventType::kPushSend:
          HandlePushSend(ev.worker);
          break;
        case EventType::kPushArrive:
          HandlePushArrive(ev.payload);
          break;
        case EventType::kPullRequest:
          HandlePullRequest(ev.worker);
          break;
        case EventType::kPullPieceRead:
          HandlePullPieceRead(ev.worker, static_cast<int>(ev.payload));
          break;
        case EventType::kPullResponse:
          HandlePullResponse(ev.worker);
          break;
        case EventType::kHeartbeatSweep:
          HandleHeartbeatSweep();
          break;
      }
    }
    return Finalize();
  }

 private:
  void Schedule(double time, EventType type, int worker, int64_t payload) {
    queue_.push(Event{time, next_seq_++, type, worker, payload});
  }

  struct LinkSlot {
    double start;    // when the server link begins serving the transfer
    double arrival;  // when the payload lands at the receiver
  };

  /// Transmission of `bytes` over worker link (multiplier `net_mult`) to
  /// server `server`, sent at `send_time`.
  LinkSlot ReserveLinkSlot(int worker, int server, double send_time,
                           double bytes, double net_mult) {
    const double duration =
        bytes / (cluster_.net_bytes_per_sec / net_mult);
    double start = send_time;
    if (cluster_.serialize_server_link) {
      double& busy = server_busy_[static_cast<size_t>(server)];
      start = std::max(send_time, busy);
      busy = start + duration;
    }
    // Congestion stalls happen in the network fabric (switch queues),
    // not on the endpoint link: they delay this payload's arrival
    // without blocking transfers of *other* connections behind it.
    double stall = 0.0;
    if (cluster_.congestion_probability > 0.0 &&
        net_rng_.NextBernoulli(cluster_.congestion_probability)) {
      stall = cluster_.congestion_seconds * net_rng_.NextExponential(1.0);
    }
    double arrival =
        start + duration + stall + cluster_.net_latency * net_mult;
    // A TCP/Netty-style transport preserves per-connection ordering: a
    // stalled payload delays everything this worker later sends to the
    // same server; nothing overtakes.
    double& last = pair_last_arrival_[static_cast<size_t>(worker) *
                                          server_busy_.size() +
                                      static_cast<size_t>(server)];
    arrival = std::max(arrival, last + 1e-9);
    last = arrival;
    return {start, arrival};
  }

  double ReserveLink(int worker, int server, double send_time,
                     double bytes, double net_mult) {
    return ReserveLinkSlot(worker, server, send_time, bytes, net_mult)
        .arrival;
  }

  double EvalObjective(const std::vector<double>& w) const {
    const size_t n =
        options_.eval_sample == 0 ? dataset_.size() : options_.eval_sample;
    return dataset_.ObjectiveSample(loss_, w, options_.l2, n);
  }

  static std::string NodeName(int worker) {
    return "worker-" + std::to_string(worker);
  }

  /// Every worker event doubles as a heartbeat at simulated time now_.
  void Beat(int worker) {
    if (monitor_ != nullptr) monitor_->Beat(NodeName(worker), now_);
  }

  /// Assembles the same hetps.status.v1 view the live service serves
  /// over kStatus, in virtual time. Reads only event-loop state, so no
  /// locking.
  void BuildSimStatus(StatusSnapshot* snap) const {
    ps_->BuildStatusSnapshot(snap);
    snap->source = "sim";
    snap->ts_us = static_cast<int64_t>(now_ * 1e6);
    snap->blocked_workers = static_cast<int64_t>(blocked_.size());
    snap->push_window = options_.push_window;
    if (options_.push_window >= 1) {
      int64_t inflight = 0;
      for (const WorkerSim& w : workers_) {
        inflight +=
            static_cast<int64_t>(w.outstanding_push_arrivals.size());
      }
      snap->push_inflight = inflight;
    }
    for (WorkerStatus& w : snap->workers) {
      if (monitor_ != nullptr) {
        w.last_beat_age_s =
            monitor_->SecondsSinceLastBeat(NodeName(w.worker), now_);
      }
    }
    plane_.DecorateStatus(snap);
  }

  void HandleStartClock(int worker) {
    WorkerSim& w = workers_[static_cast<size_t>(worker)];
    // Injected crash-stop: the worker dies just before starting this
    // clock — no push, no pull, no further heartbeats.
    if (worker == options_.kill_worker && options_.kill_at_clock >= 0 &&
        w.clock == options_.kill_at_clock && !w.killed) {
      w.killed = true;
      FlightRecorder::Global().Record("fault.kill", worker, w.clock);
      HETPS_LOG(Warning) << "sim fault: killing worker " << worker
                         << " before clock " << w.clock;
      return;
    }
    if (!ps_->IsWorkerLive(worker)) return;
    Beat(worker);
    if (w.clock >= options_.max_clocks) {
      w.done = true;
      // Orderly departure: stop monitoring a finished worker so the
      // sweep never mistakes run completion for death.
      if (monitor_ != nullptr) monitor_->Unregister(NodeName(worker));
      return;
    }
    const WorkerProfile& prof = cluster_.profile(worker);

    // Examples moved since this worker's last clock start land now; its
    // previous clock was joined at its push send.
    HETPS_DCHECK(!w.computing.valid()) << "shard refresh mid-clock";
    plane_.Refresh(worker, w.sgd->mutable_shard());
    // A clock's simulated cost depends only on its shard, so it is
    // charged here while the gradients compute on the pool.
    const LocalWorkerSgd::ClockCost cost = w.sgd->NextClockCost();
    StartCompute(&w, cost);
    double jitter = 1.0;
    if (prof.jitter_sigma > 0.0) {
      jitter = w.rng.NextLognormal(0.0, prof.jitter_sigma);
    }
    double tc =
        (static_cast<double>(cost.nnz_processed) *
             cluster_.seconds_per_nnz +
         static_cast<double>(cost.batches) * cluster_.batch_overhead) *
        prof.compute_multiplier * jitter;
    // Injected transient congestion episode: one worker slows down for a
    // clock interval, then recovers — exercises the balancer's hysteresis
    // and reassignment-back path.
    if (worker == options_.slow_worker &&
        w.clock >= options_.slow_from_clock &&
        w.clock < options_.slow_until_clock) {
      tc *= options_.slow_multiplier;
    }
    w.breakdown.compute_seconds += tc;
    w.compute_us->RecordInt(static_cast<int64_t>(tc * 1e6));
    EmitSimSpan("worker.compute", worker, now_, tc, "clock",
                static_cast<double>(w.clock));
    const double t_send = now_ + tc;

    // Report the worker's *compute* time for this clock and let the move
    // policy (the balancer or FlexRR) move examples between entitlements
    // (it flags workers by speed; SSP waiting time must not pollute the
    // signal). The reporter's own moves land at its next clock start.
    plane_.OnClockReport(worker, w.clock, tc);

    // Link reservations must happen in chronological send order (other
    // workers may send before our compute finishes), so transmission is
    // its own event at t_send.
    w.pending_push_clock = w.clock;
    Schedule(t_send, EventType::kPushSend, worker, 0);

    // Convergence curve sampled at worker-0 clock boundaries (the paper
    // tracks objective per clock). We evaluate the *global* parameter:
    // the local replica drifts between throttled pulls, which would
    // superimpose a sawtooth that says nothing about model quality.
    if (options_.record_clock_objectives && worker == 0) {
      clock_objectives_.push_back(EvalObjective(ps_->Snapshot()));
    }

    ++w.breakdown.clocks_completed;
    if (worker == 0 && options_.timeseries != nullptr) {
      options_.timeseries->SnapshotAt(
          w.clock + 1, static_cast<int64_t>(now_ * 1e6));
    }
    if (worker == 0 && options_.on_epoch) {
      options_.on_epoch(w.clock + 1);
    }
    if (worker == 0 && options_.on_status) {
      StatusSnapshot snap;
      BuildSimStatus(&snap);
      options_.on_status(snap);
    }

    // Algorithm 1 lines 8-9: refresh the replica only when cp is too
    // stale; the request leaves once the update is sent. With a modeled
    // push window (>= 0) the continuation time depends on the push's
    // arrival, so HandlePushSend schedules it instead.
    if (options_.push_window < 0) {
      ScheduleContinuation(worker, t_send);
    }
  }

  /// Schedules what follows a finished clock: the pull request when cp
  /// is too stale (Algorithm 1 lines 8-9), else the next clock. `at` is
  /// when the worker is free to continue — the push send time under the
  /// legacy/bounded overlap models, the last piece's arrival when
  /// pushes are synchronous.
  void ScheduleContinuation(int worker, double at) {
    WorkerSim& w = workers_[static_cast<size_t>(worker)];
    const WorkerProfile& prof = cluster_.profile(worker);
    if (options_.sync.NeedsPull(w.clock, w.cp)) {
      w.pending_next_clock = w.clock + 1;
      w.pull_request_time =
          at + cluster_.net_latency * prof.network_multiplier;
      Schedule(w.pull_request_time, EventType::kPullRequest, worker, 0);
    } else {
      w.clock += 1;
      Schedule(at, EventType::kStartClock, worker, 0);
    }
  }

  /// Submits `w`'s clock to the compute pool. `w` is an element of
  /// workers_, which never reallocates and outlives the pool.
  void StartCompute(WorkerSim* w, LocalWorkerSgd::ClockCost cost) {
    HETPS_DCHECK(!w->computing.valid()) << "previous clock never joined";
    auto task = std::make_shared<std::packaged_task<void()>>(
        [w, clock = w->clock, cost] {
          const LocalWorkerSgd::ClockStats stats =
              w->sgd->RunClock(clock, &w->replica, &w->pending_update);
          HETPS_DCHECK(stats.nnz_processed == cost.nnz_processed &&
                       stats.batches == cost.batches)
              << "clock cost charged before the gradients disagrees with "
                 "RunClock";
        });
    w->computing = task->get_future();
    // The pool only refuses work after Shutdown, which runs when this
    // Simulation is destroyed.
    HETPS_CHECK(compute_pool_.Submit([task] { (*task)(); }))
        << "compute pool refused a clock";
  }

  /// Joins `w`'s in-flight clock, if any, and returns the wall µs the
  /// event loop waited for it (0 when it had already finished).
  static int64_t JoinCompute(WorkerSim* w) {
    if (!w->computing.valid()) return 0;
    const auto start = std::chrono::steady_clock::now();
    w->computing.get();
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  void HandlePushSend(int worker) {
    WorkerSim& w = workers_[static_cast<size_t>(worker)];
    const WorkerProfile& prof = cluster_.profile(worker);
    compute_wait_us_->RecordInt(JoinCompute(&w));
    SparseVector update = std::move(w.pending_update);
    if (options_.update_filter_epsilon > 0.0) {
      update = update.Filtered(options_.update_filter_epsilon);
    }
    std::vector<SparseVector> pieces =
        ps_->partitioner().SplitByPartition(update);
    const int window = options_.push_window;
    // Bounded pipeline: when the window is full, the owner blocks until
    // enough of its oldest in-flight pushes land to free a slot — that
    // stall (and only it) is push cost the pipeline failed to hide.
    double send_at = now_;
    if (window >= 1) {
      std::deque<double>& out = w.outstanding_push_arrivals;
      while (!out.empty() && out.front() <= now_) out.pop_front();
      if (out.size() >= static_cast<size_t>(window)) {
        send_at = std::max(
            send_at, out[out.size() - static_cast<size_t>(window)]);
      }
    }
    // Per-partition transfers run in parallel over distinct server links;
    // the push completes when the last piece lands.
    std::vector<double> arrivals(pieces.size(), send_at);
    double max_arrival = send_at;
    size_t last_idx = 0;
    for (size_t p = 0; p < pieces.size(); ++p) {
      const double bytes =
          64.0 + static_cast<double>(pieces[p].nnz()) * 16.0;
      arrivals[p] = ReserveLink(
          worker, ps_->partitioner().ServerOf(static_cast<int>(p)),
          send_at, bytes, prof.network_multiplier);
      if (arrivals[p] >= max_arrival) {
        max_arrival = arrivals[p];
        last_idx = p;
      }
    }
    if (window < 0) {
      // Legacy unbounded overlap: the full transit is charged to comm
      // (unchanged accounting) and all of it rode beside compute.
      w.breakdown.comm_seconds += max_arrival - now_;
      w.breakdown.push_hidden_seconds += max_arrival - now_;
    } else if (window == 0) {
      // Synchronous: the worker waits out the whole transfer.
      w.breakdown.comm_seconds += max_arrival - now_;
    } else {
      w.breakdown.comm_seconds += send_at - now_;  // the stall
      w.breakdown.push_hidden_seconds += max_arrival - send_at;
      w.outstanding_push_arrivals.push_back(max_arrival);
    }
    EmitSimSpan("worker.push", worker, send_at, max_arrival - send_at,
                "clock", static_cast<double>(w.pending_push_clock));
    // Client half of the causal link: the flow starts mid-slice inside
    // worker.push and finishes inside the rpc.handle slice the server
    // track gets when the last piece lands (HandlePushArrive).
    uint64_t flow_id = 0;
    if (TraceRecorder::Global().enabled() && !pieces.empty()) {
      flow_id = NextTraceId();
      EmitSimFlow('s', flow_id, static_cast<uint32_t>(worker),
                  send_at + (max_arrival - send_at) * 0.5);
    }
    for (size_t p = 0; p < pieces.size(); ++p) {
      const int64_t id = next_piece_id_++;
      PushPieceMsg msg{static_cast<int>(p), worker, w.pending_push_clock,
                       std::move(pieces[p]), p == last_idx};
      if (msg.last) {
        msg.flow_id = flow_id;
        msg.send_time = send_at;
      }
      pieces_.emplace(id, std::move(msg));
      Schedule(arrivals[p], EventType::kPushArrive, worker, id);
    }
    // Windowed modes resume here: after the full transfer (synchronous)
    // or as soon as the stall clears (bounded window).
    if (window == 0) {
      ScheduleContinuation(worker, max_arrival);
    } else if (window >= 1) {
      ScheduleContinuation(worker, send_at);
    }
  }

  void HandlePushArrive(int64_t piece_id) {
    auto it = pieces_.find(piece_id);
    HETPS_CHECK(it != pieces_.end()) << "missing push piece";
    PushPieceMsg msg = std::move(it->second);
    pieces_.erase(it);
    Beat(msg.worker);
    // A piece from an evicted worker still arrives here (it was in
    // flight at eviction time); the PS drops it and counts
    // ps.evicted_pushes_dropped.
    ps_->PushPiece(msg.partition, msg.worker, msg.clock, msg.piece,
                   msg.last);
    if (!msg.last) return;
    if (msg.flow_id != 0) {
      // Server half of the causal link: an rpc.handle slice on the
      // owning server's track covering transit + handling, with the
      // flow-finish bound mid-slice (see EmitSimFlow).
      const uint32_t server_tid =
          kSimServerTidBase +
          static_cast<uint32_t>(
              ps_->partitioner().ServerOf(msg.partition));
      EmitSimSpanTid("rpc.handle", server_tid, msg.send_time,
                     now_ - msg.send_time, "worker",
                     static_cast<double>(msg.worker));
      EmitSimFlow('f', msg.flow_id, server_tid,
                  msg.send_time + (now_ - msg.send_time) * 0.5);
    }
    ++total_pushes_;
    if (options_.eval_every_pushes > 0 &&
        total_pushes_ % options_.eval_every_pushes == 0) {
      EvalGlobalAndCheck();
    }
    GrantBlockedPulls();
  }

  void HandlePullRequest(int worker) {
    WorkerSim& w = workers_[static_cast<size_t>(worker)];
    if (!ps_->IsWorkerLive(worker)) return;
    Beat(worker);
    if (options_.sync.CanAdvance(w.pending_next_clock, ps_->cmin())) {
      GrantPull(worker);
    } else {
      blocked_.push_back(worker);
    }
  }

  void GrantBlockedPulls() {
    for (size_t i = 0; i < blocked_.size();) {
      const int worker = blocked_[i];
      WorkerSim& w = workers_[static_cast<size_t>(worker)];
      if (!ps_->IsWorkerLive(worker)) {
        // Evicted while parked: its pull is never granted.
        blocked_.erase(blocked_.begin() + static_cast<long>(i));
        continue;
      }
      if (options_.sync.CanAdvance(w.pending_next_clock, ps_->cmin())) {
        blocked_.erase(blocked_.begin() + static_cast<long>(i));
        GrantPull(worker);
      } else {
        ++i;
      }
    }
  }

  void HandleHeartbeatSweep() {
    // A worker parked on the admission gate emits no events, but its
    // standing pull request is continuous liveness evidence — refresh its
    // beat so gate blockage is never mistaken for death.
    for (int worker : blocked_) Beat(worker);
    for (const std::string& node : monitor_->SuspectedDead(now_)) {
      // node is always "worker-<m>" (only workers are registered).
      const int victim = std::stoi(node.substr(node.rfind('-') + 1));
      monitor_->Unregister(node);
      GlobalMetrics().counter("ps.workers_suspected")->Increment();
      FlightRecorder::Global().Record(
          "worker_suspected", victim, /*clock=*/-1, /*value=*/0.0,
          options_.evict_dead_workers ? nullptr : "eviction disabled");
      if (!options_.evict_dead_workers) {
        HETPS_LOG(Warning) << "sim: worker " << victim
                           << " suspected dead (eviction disabled)";
        continue;
      }
      if (!ps_->EvictWorker(victim)) continue;
      // The victim's entitlement goes to the workers still running; a
      // killed one that is not evicted yet gets none.
      std::vector<int> receivers;
      for (size_t m = 0; m < workers_.size(); ++m) {
        if (!workers_[m].killed) receivers.push_back(static_cast<int>(m));
      }
      plane_.Evict(victim, receivers);
      // The eviction repaired cmin; parked survivors may now pass.
      GrantBlockedPulls();
    }
    // Keep sweeping while anyone still has events to emit; once every
    // worker is done/killed/evicted the queue must be allowed to drain.
    bool anyone_active = false;
    for (size_t m = 0; m < workers_.size(); ++m) {
      const WorkerSim& w = workers_[m];
      if (!w.done && !w.killed && ps_->IsWorkerLive(static_cast<int>(m))) {
        anyone_active = true;
      }
    }
    if (anyone_active) {
      Schedule(now_ + monitor_->timeout_seconds() / 2.0,
               EventType::kHeartbeatSweep, 0, 0);
    }
  }

  void GrantPull(int worker) {
    WorkerSim& w = workers_[static_cast<size_t>(worker)];
    w.breakdown.wait_seconds += now_ - w.pull_request_time;
    w.wait_us->RecordInt(
        static_cast<int64_t>((now_ - w.pull_request_time) * 1e6));
    EmitSimSpan("worker.wait", worker, w.pull_request_time,
                now_ - w.pull_request_time, "next_clock",
                static_cast<double>(w.pending_next_clock));
    const WorkerProfile& prof = cluster_.profile(worker);
    // With partition sync the worker asks the master for the stable
    // version before reading (§6); otherwise each partition serves its
    // live state at the moment its server gets to the request — which is
    // what mixes versions across partitions (Figure 5's desynchrony).
    w.pending_pull_version =
        options_.partition_sync ? ps_->StableVersion() : -1;
    double max_arrival = now_;
    const Partitioner& part = ps_->partitioner();
    for (int p = 0; p < part.num_partitions(); ++p) {
      // Size the response the way the server would at request-processing
      // time: nothing for an unchanged partition, the delta or sparse
      // block when cheaper, the dense block otherwise. Without delta_pull
      // the worker sends no tags, so every partition ships whole. The
      // actual read still happens when the link starts serving (below),
      // mirroring the real service's handling delay.
      const PiecePullPlan plan = ps_->PlanPullPiece(
          p, worker, w.pending_pull_version,
          options_.delta_pull ? w.cache->tags()[static_cast<size_t>(p)]
                              : kNoCachedTag);
      ps_->RecordPlannedPull(plan);
      pull_bytes_shipped_ += plan.bytes;
      pull_bytes_full_ += plan.bytes_full;
      const double bytes = 64.0 + static_cast<double>(plan.bytes);
      // The server reads the block when its link starts serving the
      // response; transit follows.
      const LinkSlot slot =
          ReserveLinkSlot(worker, part.ServerOf(p), now_, bytes,
                          prof.network_multiplier);
      // An unchanged partition ships only the response header — there is
      // nothing to read or apply.
      if (plan.changed) {
        Schedule(slot.start, EventType::kPullPieceRead, worker, p);
      }
      max_arrival = std::max(max_arrival, slot.arrival);
    }
    w.breakdown.comm_seconds += max_arrival - now_;
    EmitSimSpan("worker.pull", worker, now_, max_arrival - now_,
                "next_clock", static_cast<double>(w.pending_next_clock));
    w.pending_cmin = ps_->cmin();
    Schedule(max_arrival, EventType::kPullResponse, worker, 0);
  }

  void HandlePullPieceRead(int worker, int partition) {
    // The read ships the whole block (no cached tag): a delta would add
    // onto the held values and round differently from the block itself.
    // A push landing between the grant-time plan and this read makes the
    // piece's tag newer than the plan — exactly the request-processing
    // race a real service exhibits; the cache stays coherent because the
    // tag always matches the content read here.
    WorkerSim& w = workers_[static_cast<size_t>(worker)];
    w.pending_pieces.push_back(ps_->PullPartition(
        partition, worker, w.pending_pull_version, kNoCachedTag));
  }

  void HandlePullResponse(int worker) {
    WorkerSim& w = workers_[static_cast<size_t>(worker)];
    if (!ps_->IsWorkerLive(worker)) return;
    Beat(worker);
    // Unchanged partitions keep their cached values; the cache stays
    // pristine while the replica drifts under local SGD.
    w.cache->Apply(w.pending_pieces);
    w.pending_pieces.clear();
    w.replica = w.cache->values();
    w.cp = w.pending_cmin;
    w.clock += 1;
    Schedule(now_, EventType::kStartClock, worker, 0);
  }

  void EvalGlobalAndCheck() {
    const std::vector<double> w = ps_->Snapshot();
    last_global_objective_ = EvalObjective(w);
    peak_aux_bytes_ = std::max(peak_aux_bytes_, ps_->AuxMemoryBytes());
    for (int p = 0; p < ps_->num_partitions(); ++p) {
      peak_live_versions_ =
          std::max(peak_live_versions_, ps_->shard(p).rule()
                                            .LiveVersionCount());
    }
    if (converged_) return;
    if (last_global_objective_ <= options_.objective_tolerance) {
      if (sub_tolerance_evals_ == 0) {
        // Credit the time/updates of the *first* eval of the steady
        // window; the later ones only confirm steadiness.
        first_sub_tolerance_time_ = now_;
        first_sub_tolerance_pushes_ = total_pushes_;
      }
      ++sub_tolerance_evals_;
      if (sub_tolerance_evals_ >=
          std::max(1, options_.consecutive_evals_to_converge)) {
        converged_ = true;
        convergence_time_ = first_sub_tolerance_time_;
        convergence_pushes_ = first_sub_tolerance_pushes_;
        if (options_.stop_on_convergence) stop_ = true;
      }
    } else {
      sub_tolerance_evals_ = 0;
    }
  }

  SimResult Finalize() {
    // A run that stopped on convergence can leave clocks computing; they
    // finish before the last window closes so their samples land in it.
    for (WorkerSim& w : workers_) JoinCompute(&w);
    if (options_.timeseries != nullptr) {
      // Flush window: whatever accumulated since worker 0's last clock
      // (e.g. the victim's tail) still lands in a window.
      options_.timeseries->SnapshotAt(
          /*epoch=*/-1, static_cast<int64_t>(now_ * 1e6));
    }
    SimResult r;
    r.converged = converged_;
    r.total_pushes = total_pushes_;
    r.total_sim_seconds = now_;
    r.run_time_seconds = converged_ ? convergence_time_ : now_;
    r.updates_to_converge =
        converged_ ? convergence_pushes_ : total_pushes_;
    r.per_update_seconds =
        r.updates_to_converge > 0
            ? r.run_time_seconds /
                  static_cast<double>(r.updates_to_converge)
            : 0.0;
    r.objective_per_clock = clock_objectives_;
    if (!clock_objectives_.empty()) {
      const size_t n = clock_objectives_.size();
      const size_t k = std::min<size_t>(5, n);
      std::vector<double> tail(clock_objectives_.end() -
                                   static_cast<long>(k),
                               clock_objectives_.end());
      r.min_objective = Mean(tail);
      r.var_objective = Variance(tail);
      r.final_objective = clock_objectives_.back();
      for (size_t c = 0; c < n; ++c) {
        if (clock_objectives_[c] <= options_.objective_tolerance) {
          r.clocks_to_converge = static_cast<int>(c);
          break;
        }
      }
    } else {
      r.final_objective = last_global_objective_;
    }
    r.pull_bytes_shipped = pull_bytes_shipped_;
    r.pull_bytes_full = pull_bytes_full_;
    r.param_memory_bytes = ps_->ParamMemoryBytes();
    r.peak_aux_memory_bytes =
        std::max(peak_aux_bytes_, ps_->AuxMemoryBytes());
    r.peak_live_versions = peak_live_versions_;
    for (int p = 0; p < ps_->num_partitions(); ++p) {
      r.peak_live_versions = std::max(
          r.peak_live_versions, ps_->shard(p).rule().LiveVersionCount());
    }
    r.mean_staleness = ps_->shard(0).rule().ObservedMeanStaleness();
    const ShardPlaneTotals moved = plane_.Totals();
    r.workers_evicted = static_cast<int>(moved.evicted_workers.size());
    r.examples_failed_over = moved.examples_failed_over;
    r.workers_blocked_at_end = static_cast<int>(blocked_.size());
    r.examples_rebalanced = moved.examples_rebalanced;
    r.examples_returned = moved.examples_returned;
    r.rebalance_migrations = moved.migrations;
    r.worker_breakdown.reserve(workers_.size());
    for (size_t m = 0; m < workers_.size(); ++m) {
      RecordBreakdown(static_cast<int>(m), workers_[m].breakdown);
      r.worker_breakdown.push_back(workers_[m].breakdown);
    }
    GlobalMetrics()
        .gauge("sim.mean_staleness")
        ->Set(ps_->shard(0).rule().ObservedMeanStaleness());
    return r;
  }

  const Dataset& dataset_;
  const ClusterConfig& cluster_;
  const LearningRateSchedule& schedule_;
  const LossFunction& loss_;
  const SimOptions& options_;
  /// Its clock table is the one record of who is live.
  std::unique_ptr<ParameterServer> ps_;
  /// Every worker's entitlement, clock time and the move policy.
  ShardPlane plane_;

  std::vector<WorkerSim> workers_;
  // Declared after workers_ (and everything else its tasks read), so it
  // is joined before they are destroyed.
  ThreadPool compute_pool_;
  HistogramMetric* compute_wait_us_ =
      GlobalMetrics().histogram("sim.compute_wait_us");
  std::vector<double> server_busy_;
  std::vector<double> pair_last_arrival_;  // per (worker, server) FIFO
  Rng net_rng_{0};
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::unordered_map<int64_t, PushPieceMsg> pieces_;
  std::vector<int> blocked_;
  /// Liveness plane (nullptr when heartbeat_timeout_seconds <= 0).
  std::unique_ptr<HeartbeatMonitor> monitor_;

  double now_ = 0.0;
  int64_t next_seq_ = 0;
  int64_t next_piece_id_ = 0;
  int64_t total_pushes_ = 0;
  int64_t pull_bytes_shipped_ = 0;
  int64_t pull_bytes_full_ = 0;
  bool stop_ = false;
  bool converged_ = false;
  double convergence_time_ = 0.0;
  int64_t convergence_pushes_ = 0;
  int sub_tolerance_evals_ = 0;
  double first_sub_tolerance_time_ = 0.0;
  int64_t first_sub_tolerance_pushes_ = 0;
  double last_global_objective_ = 0.0;
  size_t peak_aux_bytes_ = 0;
  size_t peak_live_versions_ = 0;
  std::vector<double> clock_objectives_;
};

}  // namespace

Status SimOptions::Validate() const {
  HETPS_RETURN_NOT_OK(RunSpec::Validate());
  if (push_window < -1) {
    return Invalid("push_window must be >= -1", push_window);
  }
  if (!std::isfinite(objective_tolerance)) {
    return Invalid("objective_tolerance must be finite", objective_tolerance);
  }
  if (!(max_sim_seconds > 0.0)) {
    return Invalid("max_sim_seconds must be positive", max_sim_seconds);
  }
  if (kill_worker < -1) {
    return Invalid("kill_worker must be >= -1", kill_worker);
  }
  if (kill_at_clock < -1) {
    return Invalid("kill_at_clock must be >= -1", kill_at_clock);
  }
  if (slow_worker < -1) {
    return Invalid("slow_worker must be >= -1", slow_worker);
  }
  if (!(std::isfinite(slow_multiplier) && slow_multiplier > 0.0)) {
    return Invalid("slow_multiplier must be positive", slow_multiplier);
  }
  return Status::OK();
}

SimResult RunSimulation(const Dataset& dataset,
                        const ClusterConfig& cluster,
                        const ConsolidationRule& rule_proto,
                        const LearningRateSchedule& schedule,
                        const LossFunction& loss, const SimOptions& options,
                        StragglerMitigation* mitigation) {
  HETPS_CHECK(cluster.num_workers > 0) << "need workers";
  const Status valid = options.Validate();
  HETPS_CHECK(valid.ok()) << valid.ToString();
  const Status fits = ValidateClusterForDataset(
      cluster.num_workers, cluster.num_servers, dataset);
  HETPS_CHECK(fits.ok()) << fits.ToString();
  Simulation sim(dataset, cluster, rule_proto, schedule, loss, options,
                 mitigation);
  return sim.Run();
}

}  // namespace hetps
