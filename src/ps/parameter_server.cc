#include "ps/parameter_server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace hetps {
namespace {

using Clock = std::chrono::steady_clock;

/// Copies a partition-local block into a global dense buffer. Range-based
/// schemes are one memcpy at the partition's base key; hash striding falls
/// back to per-key address computation.
void ScatterBlock(const Partitioner& part, int p,
                  const std::vector<double>& block, double* out) {
  int64_t base = 0;
  if (part.ContiguousKeyRange(p, &base)) {
    std::memcpy(out + base, block.data(), block.size() * sizeof(double));
    return;
  }
  for (size_t local = 0; local < block.size(); ++local) {
    const int64_t g = part.GlobalIndex(p, static_cast<int64_t>(local));
    out[static_cast<size_t>(g)] = block[local];
  }
}

int64_t MicrosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - start)
      .count();
}

/// Wire-size estimate of a sparse piece: index + value per entry.
int64_t PieceBytes(const SparseVector& piece) {
  return static_cast<int64_t>(piece.nnz()) *
         static_cast<int64_t>(sizeof(int64_t) + sizeof(double));
}

// Content-tag layout (see the MakeTag doc comment in the header):
// [0 | versioned:1 | epoch:14 | value:47], sign bit always clear.
constexpr int kTagValueBits = 47;
constexpr int64_t kTagValueMask = (int64_t{1} << kTagValueBits) - 1;
constexpr int64_t kTagVersionedBit = int64_t{1} << 61;
constexpr int64_t kTagEpochMask = (int64_t{1} << 14) - 1;

}  // namespace

bool ParameterServer::TagIsVersioned(int64_t tag) {
  return tag >= 0 && (tag & kTagVersionedBit) != 0;
}

int64_t ParameterServer::TagValue(int64_t tag) {
  return tag & kTagValueMask;
}

int64_t ParameterServer::MakeTag(bool versioned, int64_t value) const {
  const int64_t epoch =
      static_cast<int64_t>(pull_epoch_.load(std::memory_order_acquire)) &
      kTagEpochMask;
  return (versioned ? kTagVersionedBit : int64_t{0}) |
         (epoch << kTagValueBits) | (value & kTagValueMask);
}

bool ParameterServer::TagInCurrentEpoch(int64_t tag, bool versioned) const {
  if (tag < 0) return false;
  return (tag & ~kTagValueMask) == (MakeTag(versioned, 0) & ~kTagValueMask);
}

ParameterServer::ParameterServer(int64_t dim, int num_workers,
                                 const ConsolidationRule& rule_proto,
                                 const PsOptions& options)
    : num_workers_(num_workers),
      options_(options),
      partitioner_(Partitioner::Create(options.scheme, dim,
                                       options.num_servers,
                                       options.partitions_per_server,
                                       options.range_cuts)),
      master_(partitioner_.num_partitions()),
      empty_push_is_noop_(rule_proto.EmptyPushIsNoOp()),
      versioned_snapshots_(rule_proto.SupportsVersionedSnapshots()),
      clock_table_(num_workers) {
  HETPS_CHECK(num_workers > 0) << "need at least one worker";
  const int parts = partitioner_.num_partitions();
  shards_.reserve(static_cast<size_t>(parts));
  shard_mu_.reserve(static_cast<size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    shards_.push_back(std::make_unique<ServerShard>(
        p, static_cast<size_t>(partitioner_.PartitionDim(p)), rule_proto,
        num_workers));
    shard_mu_.push_back(std::make_unique<std::mutex>());
  }
  // Create every metric up front: hot paths record through cached
  // pointers and never touch the registry again.
  MetricsRegistry& metrics = GlobalMetrics();
  push_counter_ = metrics.counter("ps.push.count");
  push_bytes_ = metrics.counter("ps.push.bytes");
  push_pieces_counter_ = metrics.counter("push.pieces");
  push_bytes_shipped_ = metrics.counter("push.bytes_shipped");
  pull_counter_ = metrics.counter("ps.pull.count");
  pull_cache_hit_ = metrics.counter("pull.cache_hit");
  pull_partitions_shipped_ = metrics.counter("pull.partitions_shipped");
  pull_bytes_shipped_ = metrics.counter("pull.bytes_shipped");
  pull_bytes_saved_ = metrics.counter("pull.bytes_saved");
  pull_delta_hits_ = metrics.counter("pull.delta_hits");
  worker_evicted_ = metrics.counter("ps.worker_evicted");
  cmin_repairs_ = metrics.counter("ps.cmin_repairs");
  evicted_pushes_dropped_ = metrics.counter("ps.evicted_pushes_dropped");
  blocked_workers_ = metrics.gauge("ps.blocked_workers");
  blocked_workers_->Set(0.0);
  admission_wait_us_ = metrics.histogram("ps.admission_wait_us");
  push_piece_us_.reserve(static_cast<size_t>(parts));
  push_lock_wait_us_.reserve(static_cast<size_t>(parts));
  push_apply_us_.reserve(static_cast<size_t>(parts));
  pull_piece_us_.reserve(static_cast<size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    const MetricLabels labels = {{"partition", std::to_string(p)}};
    push_piece_us_.push_back(
        metrics.histogram("ps.push_piece_us", labels));
    push_lock_wait_us_.push_back(
        metrics.histogram("ps.push_lock_wait_us", labels));
    push_apply_us_.push_back(
        metrics.histogram("ps.push_apply_us", labels));
    pull_piece_us_.push_back(
        metrics.histogram("ps.pull_piece_us", labels));
  }
  staleness_.reserve(static_cast<size_t>(num_workers));
  for (int m = 0; m < num_workers; ++m) {
    staleness_.push_back(metrics.histogram(
        "worker.staleness", {{"worker", std::to_string(m)}}));
  }
}

Result<PushPieceList> SplitPush(const Partitioner& layout,
                                double filter_epsilon,
                                const SparseVector& update) {
  // Indices are strictly increasing, so the two ends bound every key.
  if (!update.empty() &&
      (update.index(0) < 0 || update.MinimumDimension() > layout.dim())) {
    return Status::InvalidArgument("update index out of range");
  }
  // The filter is the only reason to copy the update; unfiltered pushes
  // split the caller's vector directly.
  std::vector<SparseVector> split =
      filter_epsilon > 0.0
          ? layout.SplitByPartition(update.Filtered(filter_epsilon))
          : layout.SplitByPartition(update);
  // Only the non-empty pieces go on: PushPieces decides what an absent
  // partition means to the rule.
  PushPieceList pieces;
  pieces.reserve(split.size());
  for (int p = 0; p < layout.num_partitions(); ++p) {
    SparseVector& piece = split[static_cast<size_t>(p)];
    if (!piece.empty()) pieces.emplace_back(p, std::move(piece));
  }
  return pieces;
}

void ParameterServer::Push(int worker, int clock,
                           const SparseVector& update) {
  PushPieces(worker, clock,
             SplitPush(partitioner_, options_.update_filter_epsilon, update)
                 .value());
}

void ParameterServer::PushPieces(int worker, int clock,
                                 const PushPieceList& pieces) {
  HETPS_TRACE_SPAN2("ps.push", "worker", worker, "pieces", pieces.size());
  // Membership guard, once per logical push: a push that raced its
  // sender's eviction must not touch shard state — the worker's data
  // shard has already been handed to the survivors, so its gradient
  // would double-count that data.
  if (!IsWorkerLive(worker)) {
    evicted_pushes_dropped_->Increment();
    return;
  }
  int64_t shipped = 0;
  for (const auto& pr : pieces) shipped += PieceBytes(pr.second);
  push_pieces_counter_->Increment(static_cast<int64_t>(pieces.size()));
  push_bytes_shipped_->Increment(shipped);
  // The one place that decides which partitions a push touches. A
  // partition absent from `pieces` is an empty piece. Rules that count
  // versions (DynSGD) receive it: to them an empty piece is the "worker
  // finished this clock here" completion marker (§6). For no-op-on-empty
  // rules (SSP/Con) it carries nothing, so it is skipped — no shard
  // lock, no push_count inflation, no data_version bump that would make
  // a clean partition look dirty to the version-aware pull path.
  static const SparseVector kEmptyPiece;
  std::vector<std::pair<int, const SparseVector*>> touched;
  touched.reserve(static_cast<size_t>(num_partitions()));
  size_t next = 0;
  for (int p = 0; p < num_partitions(); ++p) {
    const SparseVector* piece = &kEmptyPiece;
    if (next < pieces.size() && pieces[next].first == p) {
      piece = &pieces[next++].second;
    }
    if (piece->empty() && empty_push_is_noop_) continue;
    touched.emplace_back(p, piece);
  }
  HETPS_CHECK(next == pieces.size())
      << "push pieces must name distinct partitions in increasing order";
  if (touched.size() > 1 && options_.push_parallelism != 1) {
    // Pieces of one push hit distinct shards, so parallel apply is
    // content-deterministic: every shard sees exactly the piece it
    // would see serially, under the same shard mutex.
    RunOnApplyPool(static_cast<int>(touched.size()), [&](int i) {
      const auto& pr = touched[static_cast<size_t>(i)];
      ApplyPushPiece(pr.first, worker, clock, *pr.second);
    });
  } else {
    for (const auto& pr : touched) {
      ApplyPushPiece(pr.first, worker, clock, *pr.second);
    }
  }
  // Lock order: every shard mutex (L2) is released before AdvanceClock
  // takes clock_mu_ (L1); the two are never nested. Exactly one clock
  // advance per logical push, after the last piece landed — even when
  // no piece touched a shard.
  AdvanceClock(worker, clock);
}

void ParameterServer::PushPiece(int partition, int worker, int clock,
                                const SparseVector& local_piece,
                                bool last_piece) {
  // Same no-op-on-empty rule as PushPieces above, applied here so the
  // event simulator agrees with the facade: an empty SSP/Con piece must
  // not touch the shard. The clock still advances when this was the
  // update's last piece.
  if (local_piece.empty() && empty_push_is_noop_) {
    if (last_piece) AdvanceClock(worker, clock);
    return;
  }
  // Same membership guard as PushPieces, for the event simulator.
  // Counted once per logical push (on the final piece) so both paths
  // agree on ps.evicted_pushes_dropped.
  if (!IsWorkerLive(worker)) {
    if (last_piece) evicted_pushes_dropped_->Increment();
    return;
  }
  ApplyPushPiece(partition, worker, clock, local_piece);
  // Lock order: the shard mutex (L2) is released before AdvanceClock
  // takes clock_mu_ (L1); the two are never nested here.
  if (last_piece) AdvanceClock(worker, clock);
}

void ParameterServer::ApplyPushPiece(int partition, int worker, int clock,
                                     const SparseVector& local_piece) {
  const Clock::time_point start = Clock::now();
  Clock::time_point locked;
  {
    std::lock_guard<std::mutex> lock(
        *shard_mu_[static_cast<size_t>(partition)]);
    locked = Clock::now();
    ServerShard* shard = shards_[static_cast<size_t>(partition)].get();
    shard->Push(worker, clock, local_piece);
    master_.ReportVersion(partition, shard->CompletedVersionCount());
  }
  const int64_t lock_wait_us =
      std::chrono::duration_cast<std::chrono::microseconds>(locked - start)
          .count();
  const int64_t apply_us = MicrosSince(locked);
  push_lock_wait_us_[static_cast<size_t>(partition)]->RecordInt(
      lock_wait_us);
  push_apply_us_[static_cast<size_t>(partition)]->RecordInt(apply_us);
  push_piece_us_[static_cast<size_t>(partition)]->RecordInt(lock_wait_us +
                                                            apply_us);
  push_bytes_->Increment(PieceBytes(local_piece));
}

void ParameterServer::AdvanceClock(int worker, int clock) {
  bool advanced = false;
  int cmin_after = 0;
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    advanced = clock_table_.OnPush(worker, clock);
    cmin_after = clock_table_.cmin();
  }
  if (advanced) {
    clock_cv_.notify_all();
    // One event per (worker, clock) actually advanced — the flight
    // record's progress spine a postmortem reads eviction order against.
    FlightRecorder::Global().Record("clock_advance", worker, clock,
                                    static_cast<double>(cmin_after));
  }
  push_counter_->Increment();
  // SSP staleness of this update relative to the slowest worker.
  // Recorded here (not in the callers) so threaded, RPC and simulated
  // runtimes all feed the same worker.staleness{worker=m} histogram.
  const int staleness = clock - cmin_after;
  staleness_[static_cast<size_t>(worker)]->RecordInt(
      staleness > 0 ? staleness : 0);
}

bool ParameterServer::CanAdvance(int worker, int next_clock) const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  if (!clock_table_.is_live(worker)) return false;
  return options_.sync.CanAdvance(next_clock, clock_table_.cmin());
}

bool ParameterServer::EvictWorker(int worker) {
  HETPS_CHECK(worker >= 0 && worker < num_workers_)
      << "worker id out of range";
  bool evicted = false;
  bool repaired = false;
  int cmin_after = 0;
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    if (!clock_table_.is_live(worker)) return false;
    repaired = clock_table_.EvictWorker(worker);
    // EvictWorker refuses the last live worker; re-check membership to
    // tell a refusal apart from "evicted but cmin unchanged".
    evicted = !clock_table_.is_live(worker);
    cmin_after = clock_table_.cmin();
  }
  if (!evicted) return false;
  // Wake *everyone*: survivors re-check against the repaired cmin, the
  // victim's own WaitUntilCanAdvance observes its eviction and returns
  // false instead of blocking forever.
  clock_cv_.notify_all();
  worker_evicted_->Increment();
  if (repaired) cmin_repairs_->Increment();
  HETPS_TRACE_INSTANT1("ps.worker_evicted", "worker", worker);
  FlightRecorder::Global().Record("worker_evicted", worker, cmin_after,
                                  repaired ? 1.0 : 0.0);
  if (repaired) {
    FlightRecorder::Global().Record("cmin_repair", worker, cmin_after);
  }
  // Black-box semantics: an eviction is exactly the moment a postmortem
  // needs the ring on disk, not at (a possibly never-reached) end of run.
  FlightRecorder::Global().DumpNow("worker_evicted");
  HETPS_LOG(Info) << "ParameterServer: evicted worker " << worker
                  << (repaired ? " (cmin repaired)" : "");
  return true;
}

bool ParameterServer::IsWorkerLive(int worker) const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  return clock_table_.is_live(worker);
}

int ParameterServer::num_live_workers() const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  return clock_table_.num_live();
}

bool ParameterServer::WaitUntilCanAdvance(int worker, int next_clock,
                                          const std::atomic<bool>* cancel) {
  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_acquire);
  };
  {
    // Fast path: no wait, no telemetry churn. An evicted worker is never
    // admitted — it must not re-enter the training loop.
    std::unique_lock<std::mutex> lock(clock_mu_);
    if (!clock_table_.is_live(worker)) return false;
    if (options_.sync.CanAdvance(next_clock, clock_table_.cmin())) {
      admission_wait_us_->RecordInt(0);
      return true;
    }
    if (cancelled()) return false;
  }
  HETPS_TRACE_SPAN2("ps.wait", "worker", worker, "clock", next_clock);
  const Clock::time_point start = Clock::now();
  blocked_workers_->Add(1.0);
  bool admitted = false;
  {
    std::unique_lock<std::mutex> lock(clock_mu_);
    // Own-eviction is a wake condition: EvictWorker notify_all()s, and the
    // victim must fall out of the wait rather than sleep on a cmin that
    // will never admit it.
    clock_cv_.wait(lock, [&] {
      return !clock_table_.is_live(worker) ||
             options_.sync.CanAdvance(next_clock, clock_table_.cmin()) ||
             cancelled();
    });
    admitted = clock_table_.is_live(worker) &&
               options_.sync.CanAdvance(next_clock, clock_table_.cmin());
  }
  blocked_workers_->Add(-1.0);
  admission_wait_us_->RecordInt(MicrosSince(start));
  return admitted;
}

void ParameterServer::WakeClockWaiters() {
  // Taking clock_mu_ before notifying closes the gap between a waiter's
  // predicate check and its wait: a cancel flag set just before this
  // call is guaranteed visible to every waiter that subsequently wakes.
  { std::lock_guard<std::mutex> lock(clock_mu_); }
  clock_cv_.notify_all();
}

std::vector<double> ParameterServer::PullFull(int worker, int* cmin_out) {
  HETPS_TRACE_SPAN1("ps.pull", "worker", worker);
  int64_t version = -1;
  if (options_.partition_sync) {
    version = master_.StableVersion();
  }
  std::vector<double> out = AssemblePull(worker, version);
  if (cmin_out != nullptr) {
    std::lock_guard<std::mutex> lock(clock_mu_);
    *cmin_out = clock_table_.cmin();
  }
  return out;
}

std::vector<double> ParameterServer::AssemblePull(int worker,
                                                  int64_t version) {
  std::vector<double> out(static_cast<size_t>(partitioner_.dim()), 0.0);
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    ScatterBlock(partitioner_, p, PullPiece(p, worker, version), out.data());
  }
  return out;
}

std::vector<double> ParameterServer::PullPiece(int partition, int worker,
                                               int64_t version) {
  const Clock::time_point start = Clock::now();
  // L1 before L2: cmax is snapshotted before the shard lock (see
  // PullPartition).
  const int cmax_now = cmax();
  std::vector<double> block;
  {
    std::lock_guard<std::mutex> lock(
        *shard_mu_[static_cast<size_t>(partition)]);
    ServerShard* shard = shards_[static_cast<size_t>(partition)].get();
    block = version >= 0 ? shard->PullAtVersion(worker, cmax_now, version)
                         : shard->Pull(worker, cmax_now);
  }
  pull_piece_us_[static_cast<size_t>(partition)]->RecordInt(
      MicrosSince(start));
  pull_counter_->Increment();
  return block;
}

int64_t ParameterServer::ContentTag(const ServerShard& shard,
                                    int64_t version) const {
  const bool versioned =
      version >= 0 && options_.partition_sync && versioned_snapshots_;
  return versioned ? MakeTag(true, version)
                   : MakeTag(false, shard.data_version());
}

PiecePullPlan ParameterServer::PlanPullPiece(int partition, int worker,
                                             int64_t version,
                                             int64_t cached_tag) const {
  (void)worker;  // planning is worker-independent; kept for symmetry
  PiecePullPlan plan;
  std::lock_guard<std::mutex> lock(
      *shard_mu_[static_cast<size_t>(partition)]);
  const ServerShard& shard = *shards_[static_cast<size_t>(partition)];
  plan.tag = ContentTag(shard, version);
  plan.bytes_full = shard.WirePayloadBytes();
  if (cached_tag == plan.tag) {
    plan.changed = false;
    plan.bytes = 0;
    return plan;
  }
  plan.changed = true;
  plan.bytes = plan.bytes_full;
  // A delta ship can undercut the whole-block ship when the client's tag
  // is a live tag from the current epoch and the delta log still reaches
  // back to it.
  if (!TagIsVersioned(plan.tag) &&
      TagInCurrentEpoch(cached_tag, /*versioned=*/false)) {
    SparseVector delta;
    if (shard.DeltaSince(TagValue(cached_tag), &delta)) {
      const int64_t delta_bytes = PieceBytes(delta);
      if (delta_bytes < plan.bytes) plan.bytes = delta_bytes;
    }
  }
  return plan;
}

void ParameterServer::RecordPlannedPull(const PiecePullPlan& plan) {
  if (!plan.changed) {
    pull_cache_hit_->Increment();
  } else {
    pull_partitions_shipped_->Increment();
    pull_bytes_shipped_->Increment(plan.bytes);
    if (plan.bytes < plan.bytes_full) pull_delta_hits_->Increment();
  }
  const int64_t saved = plan.bytes_full - plan.bytes;
  if (saved > 0) pull_bytes_saved_->Increment(saved);
}

int64_t ParameterServer::PartitionTag(int partition) const {
  // Master::mu_ is a leaf lock — never held across the shard lock below.
  const int64_t version =
      options_.partition_sync ? master_.StableVersion() : -1;
  std::lock_guard<std::mutex> lock(
      *shard_mu_[static_cast<size_t>(partition)]);
  return ContentTag(*shards_[static_cast<size_t>(partition)], version);
}

PartitionPull ParameterServer::BuildPartitionPull(int partition, int worker,
                                                  int cmax_now,
                                                  int64_t version,
                                                  int64_t cached_tag,
                                                  int64_t* bytes_full_out) {
  const Clock::time_point start = Clock::now();
  PartitionPull out;
  out.partition = partition;
  {
    std::lock_guard<std::mutex> lock(
        *shard_mu_[static_cast<size_t>(partition)]);
    ServerShard* shard = shards_[static_cast<size_t>(partition)].get();
    // The tag is computed in the same critical section as the read — a
    // push between the two would stamp content the client never received.
    out.tag = ContentTag(*shard, version);
    *bytes_full_out = shard->WirePayloadBytes();
    if (cached_tag == out.tag) {
      // Cache hit: the client's copy is byte-identical. Still a read at
      // cmax for the rule's bookkeeping (Algorithm 2 line 18).
      shard->StampPull(worker, cmax_now);
      out.encoding = PartitionPull::Encoding::kUnchanged;
      return out;
    }
    // Try the delta ship first (live-tag mode only; versioned snapshots
    // change wholesale at stable-version boundaries).
    if (!TagIsVersioned(out.tag) &&
        TagInCurrentEpoch(cached_tag, /*versioned=*/false)) {
      SparseVector delta;
      if (shard->DeltaSince(TagValue(cached_tag), &delta) &&
          PieceBytes(delta) < *bytes_full_out) {
        shard->StampPull(worker, cmax_now);
        out.encoding = PartitionPull::Encoding::kSparseDelta;
        out.base_tag = cached_tag;
        out.sparse = std::move(delta);
        return out;
      }
    }
    // Whole-block ship in the cheaper layout (ParamBlock's 50% rule
    // applied to the read's content).
    out.encoding =
        shard->PullBlock(worker, cmax_now, version, &out.dense, &out.sparse)
            ? PartitionPull::Encoding::kSparse
            : PartitionPull::Encoding::kDense;
  }
  pull_piece_us_[static_cast<size_t>(partition)]->RecordInt(
      MicrosSince(start));
  return out;
}

PartitionPull ParameterServer::PullPartition(int partition, int worker,
                                             int64_t version,
                                             int64_t cached_tag) {
  // Lock order (L1 before L2): snapshot cmax under clock_mu_ *before*
  // taking the shard mutex. Taking clock_mu_ inside the shard critical
  // section inverted the SaveCheckpoint order (clock -> shard) and was a
  // real ABBA deadlock under concurrent pull + checkpoint; regression
  // test: PsConcurrencyTest.PullsRaceCheckpointsWithoutDeadlock.
  const int cmax_now = cmax();
  int64_t bytes_full = 0;
  PartitionPull out = BuildPartitionPull(partition, worker, cmax_now,
                                         version, cached_tag, &bytes_full);
  pull_counter_->Increment();
  return out;
}

ThreadPool* ParameterServer::ApplyPool() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (apply_pool_ == nullptr) {
    int n = options_.push_parallelism;
    if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 2;
    n = std::min(n, partitioner_.num_partitions());
    apply_pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(n));
  }
  return apply_pool_.get();
}

void ParameterServer::ShutdownApplyPoolForTest() {
  ThreadPool* pool = ApplyPool();
  pool->Shutdown();
}

void ParameterServer::RunOnApplyPool(int count,
                                     const std::function<void(int)>& fn) {
  // Per-call latch: the pool is shared across concurrent pushes, so we
  // count down *our* tasks instead of waiting for the pool to drain.
  std::mutex latch_mu;
  std::condition_variable latch_cv;
  int remaining = count;
  ThreadPool* pool = ApplyPool();
  for (int i = 0; i < count; ++i) {
    const bool accepted = pool->Submit([&, i] {
      fn(i);
      std::lock_guard<std::mutex> lock(latch_mu);
      if (--remaining == 0) latch_cv.notify_one();
    });
    if (!accepted) {
      // Pool shut down (destruction/shutdown races): run the task
      // inline instead of dropping it — a dropped task would leave the
      // latch undercounted forever (and, before this fallback existed,
      // silently lost the partition's work).
      fn(i);
      std::lock_guard<std::mutex> lock(latch_mu);
      if (--remaining == 0) latch_cv.notify_one();
    }
  }
  std::unique_lock<std::mutex> lock(latch_mu);
  latch_cv.wait(lock, [&] { return remaining == 0; });
}

DeltaPullResult ParameterServer::PullDelta(
    int worker, const std::vector<int64_t>& cached_tags) {
  HETPS_TRACE_SPAN1("ps.pull_delta", "worker", worker);
  const int parts = partitioner_.num_partitions();
  // L1 snapshot first (documented lock order: never after a shard lock).
  int cmax_now = 0;
  int cmin_now = 0;
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    cmax_now = clock_table_.cmax();
    cmin_now = clock_table_.cmin();
  }
  const int64_t version =
      options_.partition_sync ? master_.StableVersion() : -1;

  DeltaPullResult result;
  result.cmin = cmin_now;
  result.partitions.reserve(static_cast<size_t>(parts));
  int64_t hits = 0;
  int64_t shipped = 0;
  int64_t delta_ships = 0;
  for (int p = 0; p < parts; ++p) {
    const int64_t cached =
        static_cast<size_t>(p) < cached_tags.size()
            ? cached_tags[static_cast<size_t>(p)]
            : kNoCachedTag;
    int64_t bytes_full = 0;
    result.partitions.push_back(BuildPartitionPull(
        p, worker, cmax_now, version, cached, &bytes_full));
    const PartitionPull& pp = result.partitions.back();
    result.bytes_full += bytes_full;
    switch (pp.encoding) {
      case PartitionPull::Encoding::kUnchanged:
        ++hits;
        break;
      case PartitionPull::Encoding::kDense:
        ++shipped;
        result.bytes_shipped +=
            static_cast<int64_t>(pp.dense.size()) *
            static_cast<int64_t>(sizeof(double));
        break;
      case PartitionPull::Encoding::kSparse:
        ++shipped;
        result.bytes_shipped += PieceBytes(pp.sparse);
        break;
      case PartitionPull::Encoding::kSparseDelta:
        ++shipped;
        ++delta_ships;
        result.bytes_shipped += PieceBytes(pp.sparse);
        break;
    }
  }
  pull_counter_->Increment(parts);
  pull_cache_hit_->Increment(hits);
  pull_partitions_shipped_->Increment(shipped);
  pull_bytes_shipped_->Increment(result.bytes_shipped);
  pull_delta_hits_->Increment(delta_ships);
  const int64_t saved = result.bytes_full - result.bytes_shipped;
  if (saved > 0) pull_bytes_saved_->Increment(saved);
  return result;
}

std::vector<double> ParameterServer::Snapshot() const {
  std::vector<double> out(static_cast<size_t>(partitioner_.dim()), 0.0);
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    const std::vector<double> block =
        shards_[static_cast<size_t>(p)]->Peek();
    ScatterBlock(partitioner_, p, block, out.data());
  }
  return out;
}

int ParameterServer::cmin() const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  return clock_table_.cmin();
}

int ParameterServer::cmax() const {
  std::lock_guard<std::mutex> lock(clock_mu_);
  return clock_table_.cmax();
}

int64_t ParameterServer::TotalPushes() const {
  int64_t total = 0;
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    total += shards_[static_cast<size_t>(p)]->push_count();
  }
  return total;
}

size_t ParameterServer::ParamMemoryBytes() const {
  size_t total = 0;
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    total += shards_[static_cast<size_t>(p)]->ParamMemoryBytes();
  }
  return total;
}

size_t ParameterServer::AuxMemoryBytes() const {
  size_t total = 0;
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    total += shards_[static_cast<size_t>(p)]->AuxMemoryBytes();
  }
  return total;
}

void ParameterServer::BuildStatusSnapshot(StatusSnapshot* snap) const {
  // Clock-plane fields under L1 in one critical section, so the
  // per-worker clocks, cmin, and cmax in a snapshot are mutually
  // consistent (cmin <= every live clock <= cmax holds by the
  // ClockTable invariant).
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    snap->cmin = clock_table_.cmin();
    snap->cmax = clock_table_.cmax();
    snap->num_workers = num_workers_;
    snap->num_live_workers = clock_table_.num_live();
    snap->workers.clear();
    snap->workers.reserve(static_cast<size_t>(num_workers_));
    for (int m = 0; m < num_workers_; ++m) {
      WorkerStatus w;
      w.worker = m;
      w.clock = clock_table_.clock(m);
      w.staleness = w.clock - snap->cmin;
      w.live = clock_table_.is_live(m);
      snap->workers.push_back(w);
    }
  }
  snap->blocked_workers =
      blocked_workers_->has_value() ? blocked_workers_->value() : 0.0;
  // Shard fields deliberately skip the L2 mutexes: a scrape must never
  // queue behind (or ahead of) a push apply. The serving planes
  // (PsService loop, simulator) are serialized with pushes anyway;
  // other callers get monitoring-grade possibly-stale stamps.
  snap->shards.clear();
  snap->shards.reserve(static_cast<size_t>(partitioner_.num_partitions()));
  int64_t total_pushes = 0;
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    const ServerShard& s = *shards_[static_cast<size_t>(p)];
    ShardStatus st;
    st.partition = p;
    st.keys = partitioner_.PartitionDim(p);
    st.data_version = s.data_version();
    st.push_count = s.push_count();
    st.param_bytes = static_cast<int64_t>(s.ParamMemoryBytes());
    total_pushes += st.push_count;
    snap->shards.push_back(st);
  }
  snap->total_pushes = total_pushes;
}

Status ParameterServer::SaveCheckpoint(std::ostream& os) const {
  // Lock order: clock_mu_ (L1) first, then each shard mutex (L2) in
  // increasing partition index — the documented discipline. Holding L1
  // across the whole write keeps the clock section consistent with the
  // shard sections (pushes block on their final clock advance until the
  // checkpoint finishes).
  std::lock_guard<std::mutex> clock_lock(clock_mu_);
  os << "hetps-checkpoint v2\n";
  os << std::setprecision(17);
  os << dim() << ' ' << num_workers_ << ' '
     << partitioner_.num_partitions() << '\n';
  // The key layout: which partition and local index each key has.
  os << "layout " << PartitionSchemeName(partitioner_.scheme());
  for (int64_t cut : partitioner_.cuts()) os << ' ' << cut;
  os << '\n';
  os << "clocks";
  for (int c : clock_table_.clocks()) os << ' ' << c;
  os << '\n';
  os << "master";
  for (int64_t v : master_.VersionSnapshot()) os << ' ' << v;
  os << '\n';
  for (int p = 0; p < partitioner_.num_partitions(); ++p) {
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    const ServerShard& shard = *shards_[static_cast<size_t>(p)];
    const SparseVector sv = shard.param().ToSparse();
    os << "shard " << p << ' '
       << (shard.param().is_sparse() ? 1 : 0) << ' '
       << shard.push_count() << ' ' << sv.nnz() << '\n';
    for (size_t i = 0; i < sv.nnz(); ++i) {
      os << sv.index(i) << ' ' << sv.value(i) << ' ';
    }
    os << '\n';
    HETPS_RETURN_NOT_OK(shard.rule().SaveState(os));
  }
  return os ? Status::OK() : Status::IOError("checkpoint write failed");
}

Status ParameterServer::LoadCheckpoint(std::istream& is) {
  std::string header;
  std::getline(is, header);
  if (header == "hetps-checkpoint v1") {
    return Status::InvalidArgument(
        "checkpoint format v1 records no key layout; this build reads v2 "
        "only");
  }
  if (header != "hetps-checkpoint v2") {
    return Status::IOError("bad checkpoint header: " + header);
  }
  int64_t saved_dim = 0;
  int saved_workers = 0;
  int saved_partitions = 0;
  if (!(is >> saved_dim >> saved_workers >> saved_partitions)) {
    return Status::IOError("truncated checkpoint (shape)");
  }
  if (saved_dim != dim() || saved_workers != num_workers_ ||
      saved_partitions != partitioner_.num_partitions()) {
    return Status::InvalidArgument(
        "checkpoint shape does not match this ParameterServer");
  }
  // A layout mismatch would put every restored value on another key, so
  // it is refused here, before anything is staged.
  std::string tag;
  std::string scheme;
  if (!(is >> tag >> scheme) || tag != "layout") {
    return Status::IOError("missing layout section");
  }
  if (scheme != PartitionSchemeName(partitioner_.scheme())) {
    return Status::InvalidArgument(
        "checkpoint partition scheme " + scheme +
        " does not match this ParameterServer's " +
        PartitionSchemeName(partitioner_.scheme()));
  }
  for (int64_t cut : partitioner_.cuts()) {
    int64_t saved_cut = 0;
    if (!(is >> saved_cut)) return Status::IOError("truncated layout");
    if (saved_cut != cut) {
      return Status::InvalidArgument(
          "checkpoint range cuts do not match this ParameterServer's");
    }
  }
  if (!(is >> tag) || tag != "clocks") {
    return Status::IOError("missing clocks section");
  }
  std::vector<int> clocks(static_cast<size_t>(num_workers_));
  for (auto& c : clocks) {
    if (!(is >> c)) return Status::IOError("truncated clocks");
  }
  if (!(is >> tag) || tag != "master") {
    return Status::IOError("missing master section");
  }
  std::vector<int64_t> versions(
      static_cast<size_t>(partitioner_.num_partitions()));
  for (auto& v : versions) {
    if (!(is >> v)) return Status::IOError("truncated master versions");
  }
  // --- Stage ------------------------------------------------------------
  // Decode every shard section into shadow ServerShards before touching
  // any live state. A truncated or corrupt checkpoint therefore fails
  // cleanly with the PS exactly as it was — never clocks-restored but
  // shards-half-loaded.
  const int parts = partitioner_.num_partitions();
  std::vector<std::unique_ptr<ServerShard>> staged;
  staged.reserve(static_cast<size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    // Clone the live shard's rule as the prototype for the staged shard
    // (LoadState below fully overwrites the cloned state). The brief L2
    // lock makes the clone race-free against concurrent pushes.
    std::lock_guard<std::mutex> lock(*shard_mu_[static_cast<size_t>(p)]);
    staged.push_back(std::make_unique<ServerShard>(
        p, static_cast<size_t>(partitioner_.PartitionDim(p)),
        shards_[static_cast<size_t>(p)]->rule(), num_workers_));
  }
  for (int p = 0; p < parts; ++p) {
    int shard_id = 0;
    int sparse_layout = 0;
    int64_t push_count = 0;
    size_t nnz = 0;
    if (!(is >> tag >> shard_id >> sparse_layout >> push_count >> nnz) ||
        tag != "shard" || shard_id != p) {
      return Status::IOError("bad shard header for partition " +
                             std::to_string(p));
    }
    SparseVector sv;
    for (size_t i = 0; i < nnz; ++i) {
      int64_t idx = 0;
      double value = 0.0;
      if (!(is >> idx >> value)) {
        return Status::IOError("truncated shard values");
      }
      sv.PushBack(idx, value);
    }
    // data_version tracks pushes 1:1 (ServerShard::Push), so the restored
    // stamp is the restored push count. The epoch bump at commit below
    // keeps it from aliasing any pre-restore client tag regardless.
    HETPS_RETURN_NOT_OK(staged[static_cast<size_t>(p)]->Restore(
        sv, sparse_layout != 0, push_count, is));
  }
  // --- Commit -----------------------------------------------------------
  // Everything decoded. Swap the staged state in under the documented
  // lock order: clock_mu_ (L1) first, then shard mutexes (L2) in
  // increasing index. Holding L1 across the swap blocks every clock
  // reader/advancer and every PullPiece (which reads cmax first), so the
  // restored clock table becomes visible together with the restored
  // shards on all pull paths.
  {
    std::lock_guard<std::mutex> clock_lock(clock_mu_);
    // Hold *all* shard mutexes (increasing index — the documented L2
    // order) across the epoch bump and the swap. Any concurrent pull
    // computes its content tag under some shard mutex, so it observes
    // either (old epoch, old shard) or (new epoch, new shard) for each
    // partition — never a new-epoch tag naming pre-restore content.
    std::vector<std::unique_lock<std::mutex>> shard_locks;
    shard_locks.reserve(static_cast<size_t>(parts));
    for (int p = 0; p < parts; ++p) {
      shard_locks.emplace_back(*shard_mu_[static_cast<size_t>(p)]);
    }
    pull_epoch_.fetch_add(1, std::memory_order_acq_rel);
    clock_table_.Restore(clocks);
    master_.RestoreVersions(versions);
    for (int p = 0; p < parts; ++p) {
      shards_[static_cast<size_t>(p)] =
          std::move(staged[static_cast<size_t>(p)]);
    }
  }
  clock_cv_.notify_all();
  return Status::OK();
}

std::string ParameterServer::DebugString() const {
  std::ostringstream os;
  os << "ParameterServer(dim=" << dim() << ", workers=" << num_workers_
     << ", " << partitioner_.DebugString() << ", sync="
     << options_.sync.DebugString()
     << ", partition_sync=" << (options_.partition_sync ? "on" : "off")
     << ")";
  return os.str();
}

}  // namespace hetps
