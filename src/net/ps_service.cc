#include "net/ps_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace hetps {
namespace {

/// The liveness plane's virtual time per handled request.
constexpr double kVirtualSecondsPerRequest = 1e-3;

std::vector<uint8_t> ErrorResponse(const Status& st) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(st.code()));
  if (!w.WriteString(st.message()).ok()) {
    // Absurdly long error message (over the wire string cap): replace it
    // rather than emit a corrupt frame.
    (void)w.WriteString("(error message exceeded wire cap)");
  }
  return w.TakeBuffer();
}

// Parses the status prefix of a response; on OK leaves `reader`
// positioned at the payload.
Status ConsumeStatus(ByteReader* reader) {
  uint8_t code = 0;
  HETPS_RETURN_NOT_OK(reader->ReadU8(&code));
  if (code == 0) return Status::OK();
  std::string message;
  HETPS_RETURN_NOT_OK(reader->ReadString(&message));
  return Status(static_cast<StatusCode>(code), std::move(message));
}

/// True for the observability opcodes (kStatus / kMetricsScrape /
/// kObsControl), which stay out-of-band of the liveness plane: they
/// neither tick the virtual clock nor beat/sweep the monitor (observer
/// effect — a scraper polling at 2 Hz must not change when a silent
/// worker times out), and they are answered even for evicted senders so
/// a dead worker can still be diagnosed.
bool IsObsOpcode(const std::vector<uint8_t>& payload) {
  if (payload.empty()) return false;
  const uint8_t op = payload[0];
  return op == static_cast<uint8_t>(PsOpCode::kStatus) ||
         op == static_cast<uint8_t>(PsOpCode::kMetricsScrape) ||
         op == static_cast<uint8_t>(PsOpCode::kObsControl);
}

/// Every opcode's wire name, which also names its request counter and
/// its rpc.handle_us histogram. Names are literals, which flight-recorder
/// notes require (the ring never copies).
constexpr struct {
  PsOpCode op;
  const char* name;
} kOpNames[] = {
    {PsOpCode::kCanAdvance, "can_advance"},
    {PsOpCode::kPullDelta, "pull_delta"},
    {PsOpCode::kLayout, "layout"},
    {PsOpCode::kReportClock, "report_clock"},
    {PsOpCode::kPush, "push"},
    {PsOpCode::kStatus, "status"},
    {PsOpCode::kMetricsScrape, "metrics_scrape"},
    {PsOpCode::kObsControl, "obs_control"},
};

/// Parses "worker-<id>" endpoint names; -1 for anything else (servers,
/// test drivers — only worker endpoints participate in liveness).
int ParseWorkerId(const std::string& endpoint) {
  constexpr const char kPrefix[] = "worker-";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (endpoint.size() <= kPrefixLen ||
      endpoint.compare(0, kPrefixLen, kPrefix) != 0) {
    return -1;
  }
  int id = 0;
  for (size_t i = kPrefixLen; i < endpoint.size(); ++i) {
    const char c = endpoint[i];
    if (c < '0' || c > '9') return -1;
    id = id * 10 + (c - '0');
  }
  return id;
}

}  // namespace

const char* PsOpCodeName(uint8_t op) {
  for (const auto& entry : kOpNames) {
    if (static_cast<uint8_t>(entry.op) == op) return entry.name;
  }
  return "unknown";
}

std::optional<PsOpCode> PsOpCodeFromName(const std::string& name) {
  for (const auto& entry : kOpNames) {
    if (name == entry.name) return entry.op;
  }
  return std::nullopt;
}

PsService::PsService(ParameterServer* ps, MessageBus* bus,
                     std::string endpoint_name,
                     const PsServiceOptions& options)
    : ps_(ps),
      endpoint_name_(std::move(endpoint_name)),
      options_(options),
      request_bytes_(GlobalMetrics().histogram("rpc.request_bytes")),
      response_bytes_(GlobalMetrics().histogram("rpc.response_bytes")),
      slow_requests_(GlobalMetrics().counter("rpc.slow_requests")),
      push_duplicates_(GlobalMetrics().counter("rpc.push_duplicates")),
      evicted_sender_rejects_(
          GlobalMetrics().counter("rpc.evicted_sender_rejects")),
      last_push_clock_(static_cast<size_t>(ps ? ps->num_workers() : 0),
                       -1) {
  HETPS_CHECK(ps != nullptr) << "null ParameterServer";
  HETPS_CHECK(bus != nullptr) << "null MessageBus";
  if (options_.liveness.heartbeat_timeout_seconds > 0.0) {
    monitor_ = std::make_unique<HeartbeatMonitor>(
        options_.liveness.heartbeat_timeout_seconds);
    workers_suspected_ = GlobalMetrics().counter("ps.workers_suspected");
    // All workers start alive as of t0 — a worker that dies before its
    // first request still times out.
    const double t0 = LivenessNow();
    for (int m = 0; m < ps_->num_workers(); ++m) {
      monitor_->Register("worker-" + std::to_string(m), t0);
    }
  }
  handle_us_.fill(
      GlobalMetrics().histogram("rpc.handle_us", {{"op", "other"}}));
  for (const auto& entry : kOpNames) {
    handle_us_[static_cast<uint8_t>(entry.op)] =
        GlobalMetrics().histogram("rpc.handle_us", {{"op", entry.name}});
  }
  registration_ = bus->RegisterEndpoint(
      endpoint_name_,
      [this](const Envelope& request) { return Handle(request); });
}

double PsService::LivenessNow() const {
  if (monitor_ == nullptr) return 0.0;
  if (options_.liveness.now_fn) return options_.liveness.now_fn();
  return static_cast<double>(ticks_.load(std::memory_order_relaxed)) *
         kVirtualSecondsPerRequest;
}

void PsService::SweepDeadWorkers(double now) {
  for (const std::string& node : monitor_->SuspectedDead(now)) {
    const int worker = ParseWorkerId(node);
    if (worker < 0) continue;
    // Stop monitoring either way: the suspicion is terminal, and late
    // beats from the node become counted no-ops (never a resurrection).
    monitor_->Unregister(node);
    workers_suspected_->Increment();
    FlightRecorder::Global().Record("worker_suspected", worker,
                                    /*clock=*/-1, /*value=*/now,
                                    options_.liveness.evict_dead_workers
                                        ? nullptr
                                        : "eviction disabled");
    if (!options_.liveness.evict_dead_workers) {
      HETPS_LOG(Warning) << "PsService: worker " << worker
                         << " suspected dead (eviction disabled)";
      continue;
    }
    if (ps_->EvictWorker(worker) && options_.liveness.on_evict) {
      options_.liveness.on_evict(worker);
    }
  }
}

std::vector<uint8_t> PsService::Handle(const Envelope& request) {
  // Server half of the causal stitch: the flow-finish carries the
  // request envelope's trace_id, binding this rpc.handle slice to the
  // client's bus.rpc slice in the merged Chrome trace.
  TraceSpan rpc_span("rpc.handle");
  if (rpc_span.active() && request.trace_id != 0) {
    rpc_span.AddArg("trace_id", static_cast<double>(request.trace_id));
    rpc_span.AddArg("parent_span",
                    static_cast<double>(request.parent_span_id));
    TraceRecorder::Global().AppendFlowFinish("rpc", request.trace_id);
  }
  const bool is_obs_op = IsObsOpcode(request.payload);
  if (monitor_ != nullptr && !is_obs_op) {
    // Every handled request advances the virtual clock and beats for its
    // sender; the sweep runs before dispatch so an evicted sender's own
    // request is already rejected below. Observability opcodes skip the
    // whole block (see IsObsOpcode): no tick, no beat, no sweep, no
    // evicted-sender rejection.
    ticks_.fetch_add(1, std::memory_order_relaxed);
    const double now = LivenessNow();
    monitor_->Beat(request.from, now);
    SweepDeadWorkers(now);
    const int sender = ParseWorkerId(request.from);
    if (sender >= 0 && sender < ps_->num_workers() &&
        !ps_->IsWorkerLive(sender)) {
      // Everything from a zombie is refused, so it can never sneak state
      // in behind the eviction's back.
      evicted_sender_rejects_->Increment();
      return ErrorResponse(Status::FailedPrecondition(
          "worker " + std::to_string(sender) +
          " has been evicted (missed heartbeats)"));
    }
  }
  request_bytes_->RecordInt(static_cast<int64_t>(request.payload.size()));
  ByteReader reader(request.payload);
  uint8_t op = 0;
  Status st = reader.ReadU8(&op);
  std::vector<uint8_t> response;
  const auto start = std::chrono::steady_clock::now();
  if (!st.ok()) {
    response = ErrorResponse(st);
  } else {
    switch (static_cast<PsOpCode>(op)) {
      case PsOpCode::kPush:
        response = HandlePush(&reader);
        break;
      case PsOpCode::kPullDelta:
        response = HandlePullDelta(&reader);
        break;
      case PsOpCode::kLayout:
        response = HandleLayout(&reader);
        break;
      case PsOpCode::kCanAdvance:
        response = HandleCanAdvance(&reader);
        break;
      case PsOpCode::kReportClock:
        response = HandleReportClock(&reader);
        break;
      case PsOpCode::kStatus:
        response = HandleStatus(&reader);
        break;
      case PsOpCode::kMetricsScrape:
        response = HandleMetricsScrape(&reader);
        break;
      case PsOpCode::kObsControl:
        response = HandleObsControl(&reader);
        break;
      default:
        response = ErrorResponse(Status::InvalidArgument(
            "unknown opcode " + std::to_string(op)));
        break;
    }
  }
  const int64_t duration_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  // The envelope's trace_id rides along so a tail rpc.handle_us bucket
  // can retain it as an OpenMetrics exemplar (no-op unless exemplars
  // are enabled via kObsControl / --exemplars).
  handle_us_[op]->RecordInt(duration_us, request.trace_id);
  if (st.ok() && op < 32 && slow_threshold_us_[op] > 0 &&
      duration_us >= slow_threshold_us_[op]) {
    // Structured slow-request entry: the black box keeps the opcode,
    // sender, duration, and the trace_id that finds the full span.
    FlightRecorder::Global().Record(
        "slow_request", ParseWorkerId(request.from), /*clock=*/-1,
        static_cast<double>(duration_us), PsOpCodeName(op), request.trace_id);
    slow_requests_->Increment();
  }
  if (!response.empty() && response[0] != 0) {
    if (errors_ == nullptr) errors_ = GlobalMetrics().counter("rpc.errors");
    errors_->Increment();
  }
  response_bytes_->RecordInt(static_cast<int64_t>(response.size()));
  return response;
}

std::vector<uint8_t> PsService::HandlePush(ByteReader* reader) {
  int64_t worker = 0;
  int64_t clock = 0;
  uint64_t num_pieces = 0;
  Status st = reader->ReadI64(&worker);
  if (st.ok()) st = reader->ReadI64(&clock);
  if (st.ok()) st = reader->ReadU64(&num_pieces);
  if (st.ok() && (worker < 0 || worker >= ps_->num_workers())) {
    st = Status::InvalidArgument("worker id out of range");
  }
  const Partitioner& part = ps_->partitioner();
  if (st.ok() &&
      num_pieces > static_cast<uint64_t>(part.num_partitions())) {
    st = Status::InvalidArgument("more pieces than partitions");
  }
  if (!st.ok()) return ErrorResponse(st);
  // Retry dedup: a duplicate (worker, clock) is acknowledged without
  // decoding or re-applying its pieces.
  if (clock <= last_push_clock_[static_cast<size_t>(worker)]) {
    push_duplicates_->Increment();
    ByteWriter w;
    w.WriteU8(0);
    return w.TakeBuffer();
  }
  // Decode piece by piece straight into partition-local vectors — the
  // dim-wide global update is never materialized. Partition ids must be
  // strictly increasing (rejects duplicates, which would double-apply)
  // and every piece is bounds-checked against the layout before
  // anything is applied: a bad frame mutates nothing.
  PushPieceList pieces;
  pieces.reserve(static_cast<size_t>(num_pieces));
  int64_t prev_partition = -1;
  for (uint64_t i = 0; i < num_pieces; ++i) {
    int64_t partition = 0;
    SparseVector piece;
    st = reader->ReadI64(&partition);
    if (st.ok()) st = reader->ReadSparseVector(&piece);
    if (st.ok() &&
        (partition <= prev_partition ||
         partition >= part.num_partitions())) {
      st = Status::InvalidArgument("bad piece partition id");
    }
    if (st.ok() && !piece.empty() &&
        piece.MinimumDimension() >
            part.PartitionDim(static_cast<int>(partition))) {
      st = Status::InvalidArgument("piece index out of range");
    }
    if (!st.ok()) return ErrorResponse(st);
    prev_partition = partition;
    pieces.emplace_back(static_cast<int>(partition), std::move(piece));
  }
  ps_->PushPieces(static_cast<int>(worker), static_cast<int>(clock),
                  pieces);
  last_push_clock_[static_cast<size_t>(worker)] = clock;
  ByteWriter w;
  w.WriteU8(0);
  return w.TakeBuffer();
}

std::vector<uint8_t> PsService::HandlePullDelta(ByteReader* reader) {
  int64_t worker = 0;
  uint64_t num_tags = 0;
  Status st = reader->ReadI64(&worker);
  if (st.ok()) st = reader->ReadU64(&num_tags);
  if (st.ok() && (worker < 0 || worker >= ps_->num_workers())) {
    st = Status::InvalidArgument("worker id out of range");
  }
  if (st.ok() &&
      num_tags != static_cast<uint64_t>(ps_->num_partitions())) {
    st = Status::InvalidArgument("tag count does not match partitions");
  }
  if (!st.ok()) return ErrorResponse(st);
  // Reused decode scratch: the service loop is single-threaded.
  scratch_tags_.resize(static_cast<size_t>(num_tags));
  for (auto& tag : scratch_tags_) {
    st = reader->ReadI64(&tag);
    if (!st.ok()) return ErrorResponse(st);
  }
  DeltaPullResult result =
      ps_->PullDelta(static_cast<int>(worker), scratch_tags_);
  ByteWriter w;
  // Exact-size reservation: status + cmin + count, then per partition
  // encoding + tag (+ base tag + length prefix) + content bytes (which
  // PullDelta already accounted as bytes_shipped).
  w.Reserve(static_cast<size_t>(17 +
                                result.partitions.size() * (1 + 8 + 8 + 8) +
                                static_cast<size_t>(result.bytes_shipped)));
  w.WriteU8(0);
  w.WriteI64(result.cmin);
  w.WriteU64(result.partitions.size());
  for (const PartitionPull& pp : result.partitions) {
    w.WriteU8(static_cast<uint8_t>(pp.encoding));
    w.WriteI64(pp.tag);
    switch (pp.encoding) {
      case PartitionPull::Encoding::kUnchanged:
        break;
      case PartitionPull::Encoding::kDense:
        w.WriteDenseVector(pp.dense);
        break;
      case PartitionPull::Encoding::kSparse:
        w.WriteSparseVector(pp.sparse);
        break;
      case PartitionPull::Encoding::kSparseDelta:
        w.WriteI64(pp.base_tag);
        w.WriteSparseVector(pp.sparse);
        break;
    }
  }
  return w.TakeBuffer();
}

std::vector<uint8_t> PsService::HandleLayout(ByteReader* reader) {
  (void)reader;
  const Partitioner& part = ps_->partitioner();
  ByteWriter w;
  w.WriteU8(0);
  w.WriteU8(static_cast<uint8_t>(part.scheme()));
  w.WriteI64(part.dim());
  w.WriteI64(part.num_servers());
  w.WriteI64(part.num_partitions());
  w.WriteDouble(ps_->options().update_filter_epsilon);
  if (part.scheme() != PartitionScheme::kHash) {
    w.WriteU64(part.cuts().size());
    for (int64_t cut : part.cuts()) w.WriteI64(cut);
  }
  return w.TakeBuffer();
}

std::vector<uint8_t> PsService::HandleCanAdvance(ByteReader* reader) {
  int64_t worker = 0;
  int64_t next_clock = 0;
  Status st = reader->ReadI64(&worker);
  if (st.ok()) st = reader->ReadI64(&next_clock);
  if (st.ok() && (worker < 0 || worker >= ps_->num_workers())) {
    st = Status::InvalidArgument("worker id out of range");
  }
  if (!st.ok()) return ErrorResponse(st);
  ByteWriter w;
  w.WriteU8(0);
  w.WriteU8(ps_->CanAdvance(static_cast<int>(worker),
                            static_cast<int>(next_clock))
                ? 1
                : 0);
  return w.TakeBuffer();
}

std::vector<uint8_t> PsService::HandleReportClock(ByteReader* reader) {
  int64_t worker = 0;
  int64_t clock = 0;
  double seconds = 0.0;
  Status st = reader->ReadI64(&worker);
  if (st.ok()) st = reader->ReadI64(&clock);
  if (st.ok()) st = reader->ReadDouble(&seconds);
  if (st.ok() && (worker < 0 || worker >= ps_->num_workers())) {
    st = Status::InvalidArgument("worker id out of range");
  }
  if (st.ok() && (!std::isfinite(seconds) || seconds < 0.0)) {
    st = Status::InvalidArgument("clock time must be finite and >= 0");
  }
  if (!st.ok()) return ErrorResponse(st);
  if (options_.on_clock_report) {
    options_.on_clock_report(static_cast<int>(worker),
                             static_cast<int>(clock), seconds);
  }
  ByteWriter w;
  w.WriteU8(0);
  return w.TakeBuffer();
}

std::vector<uint8_t> PsService::HandleStatus(ByteReader* reader) {
  (void)reader;  // request carries no arguments beyond the opcode
  StatusSnapshot& snap = status_scratch_;
  snap.source = "service";
  ps_->BuildStatusSnapshot(&snap);
  snap.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count();
  if (monitor_ != nullptr) {
    const double now = LivenessNow();
    for (WorkerStatus& w : snap.workers) {
      w.last_beat_age_s = monitor_->SecondsSinceLastBeat(
          "worker-" + std::to_string(w.worker), now);
    }
  }
  const Gauge* inflight = GlobalMetrics().gauge("push.inflight");
  snap.push_inflight = inflight->has_value() ? inflight->value() : 0.0;
  if (options_.status_decorator) options_.status_decorator(&snap);
  ByteWriter w;
  w.WriteU8(0);
  const Status st = w.WriteString(snap.ToJson());
  if (!st.ok()) return ErrorResponse(st);
  return w.TakeBuffer();
}

std::vector<uint8_t> PsService::HandleMetricsScrape(ByteReader* reader) {
  uint8_t mode = 0;
  // The mode byte is optional (a bare opcode means a full scrape).
  (void)reader->ReadU8(&mode);
  std::string body;
  if (mode == 0) {
    body = GlobalMetrics().PrometheusText();
  } else if (mode == 1) {
    MetricsSnapshot cur = GlobalMetrics().SnapshotValues();
    body = MetricsDeltaJson(last_scrape_, cur);
    last_scrape_ = std::move(cur);
  } else {
    return ErrorResponse(Status::InvalidArgument(
        "unknown scrape mode " + std::to_string(mode)));
  }
  ByteWriter w;
  w.WriteU8(0);
  const Status st = w.WriteString(body);
  if (!st.ok()) return ErrorResponse(st);
  return w.TakeBuffer();
}

std::vector<uint8_t> PsService::HandleObsControl(ByteReader* reader) {
  uint8_t sub = 0;
  Status st = reader->ReadU8(&sub);
  if (!st.ok()) return ErrorResponse(st);
  switch (sub) {
    case 1: {  // toggle trace sampling
      uint8_t on = 0;
      st = reader->ReadU8(&on);
      if (!st.ok()) return ErrorResponse(st);
      if (on != 0) {
        TraceRecorder::Global().Start(TraceOptions());
      } else {
        TraceRecorder::Global().Stop();
      }
      break;
    }
    case 2: {  // toggle histogram exemplars
      uint8_t on = 0;
      st = reader->ReadU8(&on);
      if (!st.ok()) return ErrorResponse(st);
      BucketedHistogram::SetExemplarsEnabled(on != 0);
      break;
    }
    case 3: {  // per-opcode slow-request threshold
      uint8_t target_op = 0;
      int64_t threshold_us = 0;
      st = reader->ReadU8(&target_op);
      if (st.ok()) st = reader->ReadI64(&threshold_us);
      if (!st.ok()) return ErrorResponse(st);
      if (threshold_us < 0) threshold_us = 0;
      if (target_op == 0) {
        for (int64_t& t : slow_threshold_us_) t = threshold_us;
      } else if (target_op < 32) {
        slow_threshold_us_[target_op] = threshold_us;
      } else {
        return ErrorResponse(Status::InvalidArgument(
            "opcode out of range: " + std::to_string(target_op)));
      }
      break;
    }
    case 4:  // on-demand flight-recorder dump
      FlightRecorder::Global().DumpNow("obs_control");
      break;
    default:
      return ErrorResponse(Status::InvalidArgument(
          "unknown obs-control subcommand " + std::to_string(sub)));
  }
  ByteWriter w;
  w.WriteU8(0);
  return w.TakeBuffer();
}

namespace {

/// A kLayout reply after its status: the layout, or nullopt when a field
/// is out of range, a range scheme's cut points are not P+1 points rising
/// strictly from 0 to dim, or the frame is truncated or runs on.
std::optional<ServerLayout> DecodeLayout(ByteReader* reader) {
  uint8_t scheme = 0;
  int64_t dim = 0;
  int64_t num_servers = 0;
  int64_t num_partitions = 0;
  double filter_epsilon = 0.0;
  if (!reader->ReadU8(&scheme).ok() || !reader->ReadI64(&dim).ok() ||
      !reader->ReadI64(&num_servers).ok() ||
      !reader->ReadI64(&num_partitions).ok() ||
      !reader->ReadDouble(&filter_epsilon).ok()) {
    return std::nullopt;
  }
  if (scheme > static_cast<uint8_t>(PartitionScheme::kRangeHash) ||
      dim <= 0 || num_servers <= 0 || num_partitions < num_servers ||
      num_partitions > dim ||
      num_partitions > std::numeric_limits<int>::max() ||
      !std::isfinite(filter_epsilon) || filter_epsilon < 0.0) {
    return std::nullopt;
  }
  const PartitionScheme layout_scheme = static_cast<PartitionScheme>(scheme);
  const int parts = static_cast<int>(num_partitions);
  std::vector<int64_t> cuts;
  if (layout_scheme != PartitionScheme::kHash) {
    uint64_t count = 0;
    // The count is checked against P and the bytes left before anything
    // is allocated.
    if (!reader->ReadU64(&count).ok() ||
        count != static_cast<uint64_t>(parts) + 1 ||
        reader->remaining() != count * sizeof(int64_t)) {
      return std::nullopt;
    }
    cuts.resize(static_cast<size_t>(count));
    for (int64_t& cut : cuts) {
      if (!reader->ReadI64(&cut).ok()) return std::nullopt;
    }
    if (!Partitioner::ValidCuts(cuts, dim, parts)) return std::nullopt;
  }
  if (!reader->AtEnd()) return std::nullopt;
  return ServerLayout{Partitioner(layout_scheme, dim,
                                  static_cast<int>(num_servers), parts,
                                  std::move(cuts)),
                      filter_epsilon};
}

/// RpcWorkerClient's transport: see the class comment.
class BusChannel final : public PsChannel {
 public:
  BusChannel(int worker_id, MessageBus* bus, std::string ps_endpoint,
             const RpcRetryPolicy& retry)
      : worker_id_(worker_id),
        bus_(bus),
        ps_endpoint_(std::move(ps_endpoint)),
        my_endpoint_("worker-" + std::to_string(worker_id)),
        retry_(retry),
        retries_metric_(GlobalMetrics().counter("rpc.client_retries")) {
    HETPS_CHECK(bus != nullptr) << "null MessageBus";
    HETPS_CHECK(retry_.max_attempts >= 1) << "need at least one attempt";
  }

  int64_t retry_count() const {
    return retry_count_.load(std::memory_order_relaxed);
  }

  Result<ServerLayout> Layout() override {
    ByteWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kLayout));
    auto response = Roundtrip(w.TakeBuffer());
    if (!response.ok()) return response.status();
    ByteReader reader(response.value());
    HETPS_RETURN_NOT_OK(ConsumeStatus(&reader));
    std::optional<ServerLayout> layout = DecodeLayout(&reader);
    if (!layout.has_value()) {
      return Status::InvalidArgument("bad partition-layout handshake");
    }
    layout_.emplace(layout->partitioner);
    return *std::move(layout);
  }

  Status Push(int clock, const PushPieceList& pieces) override {
    ByteWriter w = Request(PsOpCode::kPush);
    w.WriteI64(clock);
    w.WriteU64(pieces.size());
    for (const auto& [partition, piece] : pieces) {
      w.WriteI64(partition);
      w.WriteSparseVector(piece);
    }
    return Call(w.TakeBuffer());
  }

  Status PullDelta(const std::vector<int64_t>& tags,
                   DeltaPullResult* out) override {
    ByteWriter w = Request(PsOpCode::kPullDelta);
    w.WriteU64(tags.size());
    for (int64_t tag : tags) w.WriteI64(tag);
    auto response = Roundtrip(w.TakeBuffer());
    if (!response.ok()) return response.status();
    ByteReader reader(response.value());
    HETPS_RETURN_NOT_OK(ConsumeStatus(&reader));
    int64_t cmin = 0;
    uint64_t parts = 0;
    HETPS_RETURN_NOT_OK(reader.ReadI64(&cmin));
    HETPS_RETURN_NOT_OK(reader.ReadU64(&parts));
    if (parts != tags.size()) {
      return Status::InvalidArgument("partition count changed mid-stream");
    }
    // Partitions arrive in index order (the response carries no explicit
    // ids). Every piece is decoded and checked against the handshaken
    // layout before the client applies any of them, so a malformed frame
    // leaves the cache untouched.
    out->cmin = static_cast<int>(cmin);
    out->partitions.assign(static_cast<size_t>(parts), PartitionPull());
    out->bytes_shipped = 0;
    // Baseline: the whole model shipped dense.
    out->bytes_full = layout_->dim() * static_cast<int64_t>(sizeof(double));
    for (size_t p = 0; p < out->partitions.size(); ++p) {
      PartitionPull& pp = out->partitions[p];
      pp.partition = static_cast<int>(p);
      uint8_t encoding = 0;
      HETPS_RETURN_NOT_OK(reader.ReadU8(&encoding));
      HETPS_RETURN_NOT_OK(reader.ReadI64(&pp.tag));
      const int64_t dim_p = layout_->PartitionDim(pp.partition);
      pp.encoding = static_cast<PartitionPull::Encoding>(encoding);
      switch (pp.encoding) {
        case PartitionPull::Encoding::kUnchanged:
          break;
        case PartitionPull::Encoding::kDense:
          HETPS_RETURN_NOT_OK(reader.ReadDenseVector(&pp.dense));
          if (pp.dense.size() != static_cast<size_t>(dim_p)) {
            return Status::InvalidArgument("dense piece has wrong length");
          }
          out->bytes_shipped +=
              static_cast<int64_t>(pp.dense.size() * sizeof(double));
          break;
        case PartitionPull::Encoding::kSparseDelta:
          HETPS_RETURN_NOT_OK(reader.ReadI64(&pp.base_tag));
          [[fallthrough]];
        case PartitionPull::Encoding::kSparse:
          HETPS_RETURN_NOT_OK(reader.ReadSparseVector(&pp.sparse));
          if (pp.sparse.MinimumDimension() > dim_p) {
            return Status::InvalidArgument(
                "sparse piece index out of range");
          }
          out->bytes_shipped += static_cast<int64_t>(
              pp.sparse.nnz() * (sizeof(int64_t) + sizeof(double)));
          break;
        default:
          return Status::InvalidArgument("unknown partition encoding");
      }
    }
    return Status::OK();
  }

  /// One kCanAdvance probe.
  Result<bool> CanAdvance(int next_clock) {
    ByteWriter w = Request(PsOpCode::kCanAdvance);
    w.WriteI64(next_clock);
    auto response = Roundtrip(w.TakeBuffer());
    if (!response.ok()) return response.status();
    ByteReader reader(response.value());
    HETPS_RETURN_NOT_OK(ConsumeStatus(&reader));
    uint8_t ok = 0;
    HETPS_RETURN_NOT_OK(reader.ReadU8(&ok));
    return ok != 0;
  }

  Status WaitUntilCanAdvance(int next_clock,
                             const std::atomic<bool>* cancel) override {
    int64_t denied = 0;
    for (;;) {
      Result<bool> admitted = CanAdvance(next_clock);
      if (!admitted.ok()) return admitted.status();
      if (admitted.value()) return Status::OK();
      ++denied;
      if (retry_.max_admission_probes > 0 &&
          denied >= retry_.max_admission_probes) {
        return Status::DeadlineExceeded(
            "admission denied after " + std::to_string(denied) +
            " probes waiting for clock " + std::to_string(next_clock));
      }
      if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
        return Status::Aborted("admission wait cancelled");
      }
      if (retry_.admission_probe_sleep.count() > 0) {
        std::this_thread::sleep_for(retry_.admission_probe_sleep);
      }
    }
  }

  Status ReportClock(int clock, double seconds) override {
    ByteWriter w = Request(PsOpCode::kReportClock);
    w.WriteI64(clock);
    w.WriteDouble(seconds);
    return Call(w.TakeBuffer());
  }

 private:
  /// A request frame: the opcode and this worker's id.
  ByteWriter Request(PsOpCode op) const {
    ByteWriter w;
    w.WriteU8(static_cast<uint8_t>(op));
    w.WriteI64(worker_id_);
    return w;
  }

  Result<std::vector<uint8_t>> Roundtrip(
      const std::vector<uint8_t>& request) {
    std::chrono::microseconds backoff = retry_.initial_backoff;
    Status last = Status::Internal("rpc never attempted");
    for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
      if (attempt > 0) {
        // Exponential backoff between attempts: lets a congested service
        // loop drain instead of hammering it with retransmits.
        std::this_thread::sleep_for(backoff);
        const auto next = static_cast<int64_t>(
            static_cast<double>(backoff.count()) *
            retry_.backoff_multiplier);
        backoff = std::min(std::chrono::microseconds(next),
                           retry_.max_backoff);
        retry_count_.fetch_add(1, std::memory_order_relaxed);
        retries_metric_->Increment();
        HETPS_TRACE_INSTANT1("rpc.retry", "worker", worker_id_);
        FlightRecorder::Global().Record("rpc_retry", worker_id_,
                                        /*clock=*/-1,
                                        static_cast<double>(attempt));
      }
      BusReply reply = bus_->BlockingCall(my_endpoint_, ps_endpoint_,
                                          request, retry_.timeout);
      if (reply.ok()) return std::move(reply.payload);
      last = reply.status;
      // Only a missed deadline (lost request or lost reply) is retryable;
      // shutdown, unknown endpoint, etc. will not improve with retries.
      if (!last.IsDeadlineExceeded()) return last;
    }
    return last;
  }

  /// Roundtrip for requests whose reply is a bare status.
  Status Call(const std::vector<uint8_t>& request) {
    auto response = Roundtrip(request);
    if (!response.ok()) return response.status();
    ByteReader reader(response.value());
    return ConsumeStatus(&reader);
  }

  const int worker_id_;
  MessageBus* const bus_;
  const std::string ps_endpoint_;
  const std::string my_endpoint_;
  const RpcRetryPolicy retry_;
  std::atomic<int64_t> retry_count_{0};
  Counter* const retries_metric_;
  /// The server's layout from the handshake, which the pull decoder
  /// checks pieces against. Set once, before any push or pull.
  std::optional<Partitioner> layout_;
};

}  // namespace

RpcWorkerClient::RpcWorkerClient(int worker_id, MessageBus* bus,
                                 std::string ps_endpoint,
                                 const RpcRetryPolicy& retry,
                                 int push_window, bool delta_pull)
    : PsClient(worker_id,
               std::make_unique<BusChannel>(worker_id, bus,
                                            std::move(ps_endpoint), retry),
               delta_pull, push_window) {}

int64_t RpcWorkerClient::retry_count() const {
  return static_cast<const BusChannel*>(channel())->retry_count();
}

Result<bool> RpcWorkerClient::CanAdvance(int next_clock) {
  HETPS_RETURN_NOT_OK(Flush());  // as in WaitUntilCanAdvance
  return static_cast<BusChannel*>(channel())->CanAdvance(next_clock);
}

}  // namespace hetps
