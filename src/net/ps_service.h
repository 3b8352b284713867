#ifndef HETPS_NET_PS_SERVICE_H_
#define HETPS_NET_PS_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/heartbeat.h"
#include "net/message_bus.h"
#include "net/serializer.h"
#include "obs/metrics.h"
#include "ps/parameter_server.h"
#include "ps/partition.h"
#include "ps/ps_client.h"

namespace hetps {

/// Wire protocol between workers and the parameter-server service. All
/// requests start with a one-byte opcode; responses start with a
/// one-byte status code (0 = OK) followed by an error string when
/// non-zero. Bytes 1, 2, 3, 5 and 9 are unassigned and answer "unknown
/// opcode".
enum class PsOpCode : uint8_t {
  kCanAdvance = 4,
  /// The one pull: the request carries the client's per-partition
  /// content tags (kNoCachedTag for a partition it does not hold); the
  /// response carries every partition, changed ones with a dense piece,
  /// sparse piece, or sparse delta — see ParameterServer::PullDelta.
  kPullDelta = 6,
  /// Partition-layout handshake: returns (scheme, dim, num_servers,
  /// num_partitions, update-filter epsilon), then for the range schemes
  /// the count and list of the P+1 cut points (nothing for kHash), so a
  /// client can rebuild the server's Partitioner exactly, filter and
  /// split its pushes, and scatter partition-local pieces without
  /// out-of-band configuration.
  kLayout = 7,
  /// Worker reports the measured duration of its last compute clock
  /// (worker id, clock, seconds). A well-formed report goes to the
  /// service's on_clock_report hook, where the trainer's ShardPlane
  /// records it and runs its move policy.
  kReportClock = 8,
  /// Push: (worker, clock, piece count), then per piece a partition id
  /// + a partition-local columnar SparseVector, in increasing partition
  /// order. Empty pieces are left off; ParameterServer::PushPieces, where
  /// the handler routes the pieces, decides what an absent partition
  /// means to the rule. A retried (worker, clock) is acknowledged without
  /// re-applying. Clients learn the layout (kLayout) on first use.
  kPush = 10,
  /// Live-introspection snapshot (hetps.status.v1 JSON): per-worker
  /// clock/staleness/liveness, cmin/cmax, loan balances, push-window
  /// inflight, per-shard key counts. Read-mostly and out-of-band of
  /// membership: observability opcodes neither tick the virtual clock
  /// nor beat/sweep the heartbeat monitor (a scrape must not perturb
  /// eviction timing), and kStatus is answered even for evicted senders
  /// so a dead worker can still be diagnosed.
  kStatus = 11,
  /// Metrics scrape. Request: opcode + mode byte (0 = full Prometheus
  /// text with OpenMetrics-style exemplars; 1 = cumulative-delta JSON,
  /// scrape N minus scrape N−1 against the service's stored previous
  /// snapshot — single-scraper semantics). Response: status + string.
  kMetricsScrape = 12,
  /// Runtime observability control. Request: opcode + subcommand byte:
  /// 1 = toggle trace sampling (u8 on/off), 2 = toggle histogram
  /// exemplars (u8 on/off), 3 = set per-opcode slow-request threshold
  /// (u8 opcode, 0 = all; i64 threshold_us, <= 0 clears — slow requests
  /// log structured flight-recorder entries with their trace_id),
  /// 4 = trigger an on-demand flight-recorder dump.
  kObsControl = 13,
};

/// Wire name of an opcode byte ("push", "pull_delta", ...), or "unknown".
/// The service's slow-request notes and the CLI's --slow_op flag both
/// read this one table.
const char* PsOpCodeName(uint8_t op);

/// The opcode named `name`; nullopt when no opcode has that name.
std::optional<PsOpCode> PsOpCodeFromName(const std::string& name);

/// Heartbeat-driven worker liveness (the SSP liveness repair: one dead
/// worker must not pin cmin and stall every survivor forever).
///
/// Every request a worker sends — pushes, pulls, *and admission probes*
/// (RpcWorkerClient::WaitUntilCanAdvance polls kCanAdvance, so a blocked
/// survivor keeps beating) — doubles as a heartbeat for its `Envelope.from`
/// endpoint. The service sweeps the monitor on every handled request and
/// evicts workers whose last beat is older than the timeout; requests from
/// evicted senders are rejected with FailedPrecondition, so a zombie can
/// never sneak state in behind the eviction's back. Eviction is final: a
/// hung worker that wakes up evicted exits (DESIGN.md §6).
///
/// Time is *virtual* by default: each handled request advances a tick
/// counter, and now = ticks × 1 ms. That makes the timeout deterministic
/// under test schedulers and needs no wall-clock sleeps — a dead worker is
/// detected because the survivors' traffic keeps ticking while its own
/// beats stop. Inject `now_fn` to supply real time (or any other clock)
/// instead.
struct PsLivenessOptions {
  /// Evict a worker whose last heartbeat is older than this many
  /// (virtual) seconds. <= 0 disables the whole liveness plane.
  double heartbeat_timeout_seconds = 0.0;
  /// When false, timed-out workers are only counted/logged as suspected
  /// (ps.workers_suspected), never evicted — the pre-repair behavior,
  /// kept for the deadlock-demonstration tests and A/B runs.
  bool evict_dead_workers = true;
  /// Overrides the request-tick clock with caller-supplied time.
  std::function<double()> now_fn;
  /// Called (from the service loop, no PS locks held) after a worker is
  /// successfully evicted — the trainer hooks shard failover here.
  std::function<void(int)> on_evict;
};

/// Service-side behavior knobs.
struct PsServiceOptions {
  /// Heartbeat-driven eviction; off by default (timeout <= 0).
  PsLivenessOptions liveness;
  /// Called (on the service loop, no PS locks held) for each well-formed
  /// kReportClock request — the trainer's ShardPlane records the time
  /// and rebalances here. Arguments are (worker, clock, measured compute
  /// seconds).
  std::function<void(int worker, int clock, double seconds)>
      on_clock_report;
  /// Called (on the service loop) after ParameterServer::
  /// BuildStatusSnapshot has filled the PS-owned fields of a kStatus
  /// snapshot — the trainer decorates loan-ledger balances and the push
  /// window here (its ShardPlane serializes them with on_clock_report).
  std::function<void(StatusSnapshot*)> status_decorator;
};

/// Serves a ParameterServer over a MessageBus endpoint — the prototype's
/// "server" role with a real serialization boundary: every push and pull
/// crosses the bus as bytes (Appendix D's Netty transport, in process).
///
/// One service instance handles all partitions of the wrapped PS; the
/// bus endpoint's service loop serializes request handling (so the
/// dedup table and metrics need no extra locking).
///
/// Pushes are applied exactly once under at-least-once delivery: workers
/// push strictly increasing clocks, so a push whose clock is <= the last
/// clock applied for that worker is a retry duplicate (its response was
/// dropped, or the request was retransmitted) and is acknowledged
/// without re-applying.
class PsService {
 public:
  /// Registers endpoint `endpoint_name` on `bus`. Both pointers must
  /// outlive the service.
  PsService(ParameterServer* ps, MessageBus* bus,
            std::string endpoint_name,
            const PsServiceOptions& options = PsServiceOptions());

  Status status() const { return registration_; }
  const std::string& endpoint() const { return endpoint_name_; }

  /// Current liveness time: now_fn() when injected, else the request-tick
  /// virtual clock. 0 when the liveness plane is disabled.
  double LivenessNow() const;

  /// Requests handled so far (drives the virtual clock).
  int64_t requests_handled() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  /// The liveness monitor (nullptr when disabled); test introspection.
  const HeartbeatMonitor* heartbeat_monitor() const {
    return monitor_.get();
  }

 private:
  std::vector<uint8_t> Handle(const Envelope& request);
  /// Evicts (or counts, when eviction is disabled) every worker whose
  /// last heartbeat predates now - timeout. Runs on the service loop.
  void SweepDeadWorkers(double now);
  std::vector<uint8_t> HandlePush(ByteReader* reader);
  std::vector<uint8_t> HandlePullDelta(ByteReader* reader);
  std::vector<uint8_t> HandleLayout(ByteReader* reader);
  std::vector<uint8_t> HandleCanAdvance(ByteReader* reader);
  std::vector<uint8_t> HandleReportClock(ByteReader* reader);
  std::vector<uint8_t> HandleStatus(ByteReader* reader);
  std::vector<uint8_t> HandleMetricsScrape(ByteReader* reader);
  std::vector<uint8_t> HandleObsControl(ByteReader* reader);

  ParameterServer* ps_;
  std::string endpoint_name_;
  PsServiceOptions options_;
  Status registration_;
  /// Telemetry in GlobalMetrics(), resolved once so Handle looks up no
  /// metric by name. handle_us_ is indexed by the opcode byte: the
  /// handler latency histogram rpc.handle_us{op=<name>}, op=other for a
  /// byte with no name. rpc.errors is registered at the first error, so
  /// an error-free service reports no rpc.errors line.
  std::array<HistogramMetric*, 256> handle_us_;
  HistogramMetric* request_bytes_;
  HistogramMetric* response_bytes_;
  Counter* slow_requests_;
  Counter* push_duplicates_;
  Counter* evicted_sender_rejects_;
  Counter* errors_ = nullptr;
  /// Last clock applied per worker (-1 = none); only touched by the
  /// single service-loop thread.
  std::vector<int64_t> last_push_clock_;
  /// Reusable decode scratch for kPullDelta requests (the service loop
  /// is single-threaded, so one instance suffices and the per-request
  /// allocation disappears).
  std::vector<int64_t> scratch_tags_;
  /// Liveness plane (nullptr when liveness.heartbeat_timeout_seconds
  /// <= 0). The monitor is thread-safe; the sweep runs on the service
  /// loop. ticks_ is atomic so LivenessNow() is callable from any
  /// thread (e.g. a hung worker spinning on virtual time).
  std::unique_ptr<HeartbeatMonitor> monitor_;
  std::atomic<int64_t> ticks_{0};
  Counter* workers_suspected_ = nullptr;
  /// kStatus scratch (service loop only): reused across snapshots so a
  /// scrape allocates nothing once the vectors have grown.
  StatusSnapshot status_scratch_;
  /// Previous kMetricsScrape snapshot (delta mode's N−1 base; service
  /// loop only — delta scraping is single-scraper by contract).
  MetricsSnapshot last_scrape_;
  /// Per-opcode slow-request thresholds in microseconds (0 = off), set
  /// via kObsControl; indexed by raw opcode byte. Service loop only.
  int64_t slow_threshold_us_[32] = {};
};

/// Client-side timeout/retry policy: every RPC waits at most `timeout`
/// per attempt and retries with exponential backoff on
/// DeadlineExceeded (lost request or lost reply). Non-deadline errors
/// (bad request, unknown endpoint, bus shutdown) are returned
/// immediately — retrying cannot fix those. Push retries are safe
/// because PsService dedups by (worker, clock).
struct RpcRetryPolicy {
  /// Per-attempt reply deadline; <= 0 waits forever (no retries fire).
  std::chrono::microseconds timeout{std::chrono::milliseconds(1000)};
  /// Total attempts including the first (>= 1).
  int max_attempts = 6;
  /// Backoff before retry k (1-based) is
  /// min(initial_backoff * multiplier^(k-1), max_backoff).
  std::chrono::microseconds initial_backoff{200};
  double backoff_multiplier = 2.0;
  std::chrono::microseconds max_backoff{std::chrono::milliseconds(20)};
  /// Sleep between WaitUntilCanAdvance admission probes (0 = busy-poll).
  std::chrono::microseconds admission_probe_sleep{200};
  /// Give up admission polling with DeadlineExceeded after this many
  /// denied probes (0 = poll forever — the pre-eviction behavior, which
  /// deadlocks when a dead worker pins cmin and eviction is disabled).
  int64_t max_admission_probes = 0;

  static RpcRetryPolicy NoRetry() {
    RpcRetryPolicy p;
    p.timeout = std::chrono::microseconds(0);  // wait forever
    p.max_attempts = 1;
    return p;
  }
};

/// A PsClient over the message bus to a PsService (the RPC runtime).
///
/// Its channel makes every operation one request/response round trip to
/// `ps_endpoint`, each attempt bounded by `retry.timeout` and retried
/// with backoff on DeadlineExceeded (rpc.client_retries in
/// GlobalMetrics() counts the retries of all clients). The kLayout
/// handshake supplies the partition layout, its range cuts included, and
/// the update filter; a malformed handshake (a bad field, cut points
/// that do not rise strictly from 0 to dim or are not P+1, a truncated
/// frame or trailing bytes) is InvalidArgument. Pushes are kPush frames, which
/// the service dedups by (worker, clock), so a retried push applies once.
/// A kPullDelta response is untrusted bytes: the whole frame is decoded
/// and checked against the layout before any piece reaches the cache.
/// Admission polls kCanAdvance — a blocking server call would stall the
/// single service loop — sleeping `retry.admission_probe_sleep` between
/// denied probes and giving up with DeadlineExceeded after
/// `retry.max_admission_probes` of them (0 = never). Every request from
/// an evicted worker answers FailedPrecondition. pulled_bytes_full()
/// counts dim × 8 bytes per pull, and
/// push.inflight* and client.cache_apply_us land in GlobalMetrics().
class RpcWorkerClient : public PsClient {
 public:
  RpcWorkerClient(int worker_id, MessageBus* bus, std::string ps_endpoint,
                  const RpcRetryPolicy& retry = RpcRetryPolicy(),
                  int push_window = 0, bool delta_pull = true);

  /// Retries performed so far (attempts beyond the first), the push
  /// sender's included.
  int64_t retry_count() const;

  /// One admission probe, after draining the push window.
  Result<bool> CanAdvance(int next_clock);
};

}  // namespace hetps

#endif  // HETPS_NET_PS_SERVICE_H_
