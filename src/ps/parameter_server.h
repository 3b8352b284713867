#ifndef HETPS_PS_PARAMETER_SERVER_H_
#define HETPS_PS_PARAMETER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/consolidation.h"
#include "core/sync_policy.h"
#include "math/sparse_vector.h"
#include "obs/metrics.h"
#include "ps/master.h"
#include "ps/partition.h"
#include "ps/server_shard.h"
#include "ps/status.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hetps {

/// Configuration of the in-process parameter-server fabric.
struct PsOptions {
  int num_servers = 1;
  int partitions_per_server = 1;
  PartitionScheme scheme = PartitionScheme::kRangeHash;
  /// For the range schemes: the P+1 partition boundaries (see
  /// Partitioner::HeldKeyCuts). Empty = equal ranges.
  std::vector<int64_t> range_cuts;
  SyncPolicy sync = SyncPolicy::Ssp(3);
  /// Client-side filter: drop |x| <= epsilon update entries before the
  /// push (§5.3); 0 disables.
  double update_filter_epsilon = 0.0;
  /// Version-based partition synchronization through the master (§6);
  /// effective with a deferred-mode DynSGD rule.
  bool partition_sync = false;
  /// Threads used to apply a push's partition pieces shard-parallel
  /// (each piece under its own shard mutex; AdvanceClock fires once
  /// after the last piece). 0 = auto (hardware concurrency, capped at
  /// the partition count); 1 = serial apply on the calling thread —
  /// the default, which is byte-for-byte today's push path. Pulls are
  /// always assembled on the calling thread.
  int push_parallelism = 1;
};

/// Sentinel for "client has no cached replica of this partition".
constexpr int64_t kNoCachedTag = -1;

/// One partition's share of a version-aware pull response.
///
/// `tag` is the partition's *content tag* after this pull: an opaque
/// int64 that is equal across two pulls iff the materialized content is
/// byte-identical (see ParameterServer's tag encoding). The client stores
/// it alongside its cached copy and sends it back on the next pull.
struct PartitionPull {
  enum class Encoding : uint8_t {
    /// Content identical to the client's cached copy — no payload.
    kUnchanged = 0,
    /// Whole block, dense layout (`dense` holds PartitionDim(p) values).
    kDense = 1,
    /// Whole block, sparse layout (`sparse` holds the nonzeros).
    kSparse = 2,
    /// Arithmetic difference since the client's cached copy (`sparse`
    /// holds the delta; valid only against `base_tag`).
    kSparseDelta = 3,
  };

  int partition = 0;
  Encoding encoding = Encoding::kUnchanged;
  /// Content tag of the partition after this pull.
  int64_t tag = kNoCachedTag;
  /// For kSparseDelta: the cached tag the delta applies on top of. The
  /// client must verify it still holds that exact tag (a retried or
  /// reordered RPC could race a newer response) and fall back to a full
  /// pull on mismatch.
  int64_t base_tag = kNoCachedTag;
  std::vector<double> dense;
  SparseVector sparse;
};

/// Result of a version-aware pull: the changed partitions (all partitions
/// are present; unchanged ones carry no payload), the clock floor, and
/// the wire accounting the comm model / metrics consume.
struct DeltaPullResult {
  std::vector<PartitionPull> partitions;
  int cmin = 0;
  /// Content bytes this response actually ships (headers excluded).
  int64_t bytes_shipped = 0;
  /// Content bytes a cache-less whole-model pull would have shipped.
  int64_t bytes_full = 0;
};

/// One push's partition-local pieces: (partition, piece) pairs, each
/// piece non-empty, in increasing partition order. ParameterServer::
/// PushPieces applies them and the kPush frame carries them.
using PushPieceList = std::vector<std::pair<int, SparseVector>>;

/// The client half of a push: drops the |x| <= `filter_epsilon` entries
/// when `filter_epsilon` > 0 (§5.3), splits the rest by partition and
/// keeps the non-empty pieces. InvalidArgument when a key lies outside
/// [0, layout.dim()).
Result<PushPieceList> SplitPush(const Partitioner& layout,
                                double filter_epsilon,
                                const SparseVector& update);

/// Size/route plan for one partition of a pull — the simulator asks for
/// this at grant time to size the per-partition message without
/// materializing the block.
struct PiecePullPlan {
  /// False when the cached tag still matches (no payload needed).
  bool changed = true;
  /// Content tag the response would carry.
  int64_t tag = kNoCachedTag;
  /// Content bytes the response ships (0 when unchanged).
  int64_t bytes = 0;
  /// Content bytes a whole-block ship would cost (50% rule).
  int64_t bytes_full = 0;
};

/// Thread-safe facade over the partitioned server shards, the global clock
/// table, and the master — the "logical PS" the paper's Figure 1 shows.
///
/// Every runtime pulls through one piece build (BuildPartitionPull): the
/// threaded client and PsService call PullDelta for all partitions; the
/// event simulator plans each partition at grant time (PlanPullPiece) and
/// reads it at link-service time (PullPartition), so it can model
/// per-partition message timing. Pushes go through PushPieces (or
/// PushPiece in the simulator).
///
/// ## Lock-ordering discipline (enforced; see DESIGN.md §"Concurrency &
/// fault model")
///
/// The facade owns two lock levels plus leaf locks; one caller's lock
/// sits above them:
///
///   L0. `ShardPlane::mu_` — held while the plane reads membership
///                          (IsWorkerLive, L1); nothing in here calls
///                          the plane
///   L1. `clock_mu_`      — clock table (cmin/cmax, SSP admission, the
///                          one record of who is live)
///   L2. `shard_mu_[p]`   — one per shard, ordered by partition index
///   leaf. `Master::mu_`  — internal to Master, never held across calls
///
/// A thread may only acquire locks downward: the plane's mutex before
/// `clock_mu_`, `clock_mu_` strictly before any `shard_mu_[p]`, and
/// shard mutexes only in increasing partition order. Acquiring
/// `clock_mu_` while holding any shard mutex is forbidden — that
/// inversion was a real ABBA deadlock between SaveCheckpoint
/// (clock→shard) and PullPiece (shard→clock), fixed by reading cmax
/// *before* taking the shard lock. Code that needs clock state inside a
/// shard critical section must snapshot it first.
class ParameterServer {
 public:
  ParameterServer(int64_t dim, int num_workers,
                  const ConsolidationRule& rule_proto,
                  const PsOptions& options);

  int64_t dim() const { return partitioner_.dim(); }
  int num_workers() const { return num_workers_; }
  int num_partitions() const { return partitioner_.num_partitions(); }
  const Partitioner& partitioner() const { return partitioner_; }
  const PsOptions& options() const { return options_; }

  /// --- Whole-push/pull API (threaded runtime, tests) ---

  /// Applies SplitPush with this server's filter and hands the pieces to
  /// PushPieces. Aborts on a key outside [0, dim).
  void Push(int worker, int clock, const SparseVector& update);

  /// Applies the partition-local pieces of ONE logical push (worker,
  /// clock) — the wire path (PsService) and the facade Push both land
  /// here. A partition absent from `pieces` is an empty piece: rules
  /// that count versions (EmptyPushIsNoOp() false) receive it, SSP/Con
  /// skip it, as they skip any empty piece. Pieces apply shard-parallel
  /// on the shared apply pool when options().push_parallelism != 1
  /// (each under its own shard mutex; pieces of one push touch distinct
  /// shards, so the result is independent of apply order). AdvanceClock
  /// fires exactly once after the last piece, with no shard mutex held
  /// (L2 before L1, never nested). Pieces must be partition-local (from
  /// SplitPush or the wire decoder) and in strictly increasing partition
  /// order.
  void PushPieces(int worker, int clock, const PushPieceList& pieces);

  /// True if `worker` may begin `next_clock` under the sync policy.
  /// Always false for an evicted worker.
  bool CanAdvance(int worker, int next_clock) const;

  /// --- Worker liveness & eviction (the SSP liveness repair) ---
  ///
  /// The clock table's live set is the one record of who is live: the
  /// admission gate, the push guard, the RPC service's evicted-sender
  /// check and the ShardPlane all read it. It only shrinks; an evicted
  /// worker never comes back (DESIGN.md §6 "Failure model").

  /// Removes `worker` from the live membership: its clock-table entry
  /// stops pinning cmin (ClockTable::EvictWorker), subsequent pushes
  /// from it are dropped and counted (ps.evicted_pushes_dropped), and
  /// every thread blocked in WaitUntilCanAdvance is woken — survivors
  /// re-check the repaired cmin, the victim observes its own eviction.
  /// Returns true if the worker was live (false = no-op). Emits
  /// ps.worker_evicted, and ps.cmin_repairs when the eviction advanced
  /// cmin.
  bool EvictWorker(int worker);

  bool IsWorkerLive(int worker) const;
  int num_live_workers() const;

  /// Blocks until CanAdvance holds (condition variable, woken by pushes)
  /// or `*cancel` becomes true (checked on every wake; pair with
  /// WakeClockWaiters()). Returns true if admitted, false if cancelled.
  /// The default nullptr never cancels — legacy callers block as before.
  bool WaitUntilCanAdvance(int worker, int next_clock,
                           const std::atomic<bool>* cancel = nullptr);

  /// Wakes every thread blocked in WaitUntilCanAdvance so it can re-check
  /// its cancel token. Used by prefetch teardown (PsClient dtor).
  void WakeClockWaiters();

  /// Assembles the full dense parameter. When partition_sync is on, pulls
  /// every partition at the master's stable version. Returns the vector
  /// and the current cmin (Algorithm 1's pull returns both). No runtime
  /// pulls this way: it materializes each shard without PullBlock's
  /// support gather, which makes it the independent dense reference the
  /// tests compare replicas against (and bench_micro's pull benchmark).
  std::vector<double> PullFull(int worker, int* cmin_out = nullptr);

  /// Version-aware pull: the one pull of the threaded and RPC runtimes.
  ///
  /// `cached_tags[p]` is the content tag the client holds for partition p
  /// (kNoCachedTag if none; a short vector is padded with kNoCachedTag, so
  /// an empty vector pulls every partition whole).
  /// For every partition the response carries the new tag plus either
  /// nothing (kUnchanged), the whole block (dense or sparse, 50% rule),
  /// or the sparse delta since the cached tag — whichever is smallest.
  /// Pull state is stamped on *every* partition (a cache hit is still a
  /// read at cmax, Algorithm 2 line 18). Partitions are built serially
  /// on the calling thread: each costs about what it ships, so a fan-out
  /// to the apply pool would only add thread handoffs.
  DeltaPullResult PullDelta(int worker,
                            const std::vector<int64_t>& cached_tags);

  /// Read-only global snapshot (no pull stamping) for evaluation.
  std::vector<double> Snapshot() const;

  /// --- Piecewise API (event simulator) ---

  /// Applies one partition's piece of a push. `last_piece` advances the
  /// clock table (and reports versions to the master). Pieces must already
  /// be partition-local (from partitioner().SplitByPartition).
  void PushPiece(int partition, int worker, int clock,
                 const SparseVector& local_piece, bool last_piece);

  /// Pulls one partition's dense block (stamping pull state), the piece
  /// PullFull assembles. If `version >= 0`, pulls the snapshot at that
  /// version.
  std::vector<double> PullPiece(int partition, int worker,
                                int64_t version = -1);

  /// Plans one partition of a version-aware pull without materializing:
  /// compares `cached_tag` against the partition's current content tag
  /// and reports what a response would ship (delta / sparse / dense
  /// bytes, 50% rule). Does NOT stamp pull state — the simulator calls
  /// this at grant time to size messages, then PullPartition at read
  /// time. `version` as in PullPiece.
  PiecePullPlan PlanPullPiece(int partition, int worker, int64_t version,
                              int64_t cached_tag) const;

  /// One partition's share of a version-aware pull: the PartitionPull
  /// PullDelta builds for `partition`, read at `version` (-1 = live) and
  /// answered against `cached_tag`. Stamps pull state; the pull.*
  /// counters are left to RecordPlannedPull.
  PartitionPull PullPartition(int partition, int worker, int64_t version,
                              int64_t cached_tag);

  /// Accounting hook for callers that size messages via PlanPullPiece
  /// (the event simulator): folds one planned partition response into the
  /// pull.* counters so simulated and served pulls share a metric
  /// namespace.
  void RecordPlannedPull(const PiecePullPlan& plan);

  /// Current content tag of one partition (no pull stamping).
  int64_t PartitionTag(int partition) const;

  /// --- Introspection ---

  int cmin() const;
  int cmax() const;

  /// Read access to one shard (introspection; do not mutate concurrently
  /// with pushes).
  const ServerShard& shard(int p) const {
    return *shards_.at(static_cast<size_t>(p));
  }
  int64_t StableVersion() const { return master_.StableVersion(); }
  int64_t TotalPushes() const;

  /// Memory accounting for Figure 13.
  size_t ParamMemoryBytes() const;
  size_t AuxMemoryBytes() const;

  /// Fills the PS-owned fields of a live-introspection snapshot
  /// (hetps.status.v1): clock table (per-worker clock/staleness/
  /// liveness, cmin/cmax) under L1 only, per-shard key counts and
  /// version stamps via monitoring-grade reads — no L2 shard mutex is
  /// ever taken, so a scrape can never stall the push hot path. The
  /// serving plane (PsService / trainer / simulator) decorates the
  /// remaining fields (heartbeat ages, push-window state, loans).
  void BuildStatusSnapshot(StatusSnapshot* snap) const;

  /// Checkpointing (Appendix D failure recovery); see ps/checkpoint.h for
  /// the file-level helpers and the format. Both ends must use the same
  /// configuration and key layout: LoadCheckpoint refuses another shape,
  /// scheme or set of range cuts with InvalidArgument before it stages
  /// anything.
  ///
  /// LoadCheckpoint is transactional: the whole checkpoint is parsed and
  /// staged into shadow state first and committed only if every section
  /// decoded cleanly. On any error the live PS is left exactly as it was
  /// (a truncated or corrupt file can never half-restore the server).
  Status SaveCheckpoint(std::ostream& os) const;
  Status LoadCheckpoint(std::istream& is);

  std::string DebugString() const;

  /// Tag introspection helpers (used by clients, tests and the wire
  /// layer; tags are otherwise opaque).
  static bool TagIsVersioned(int64_t tag);
  static int64_t TagValue(int64_t tag);

  /// Test-only: shuts the apply pool down in place. Subsequent parallel
  /// push applies must degrade to inline execution (the Submit-refused
  /// fallback) instead of silently dropping work.
  void ShutdownApplyPoolForTest();

 private:
  std::vector<double> AssemblePull(int worker, int64_t version);

  /// Applies one already-validated, non-empty partition piece under its
  /// shard mutex, splitting the timing into ps.push_lock_wait_us (mutex
  /// acquisition) and ps.push_apply_us (consolidation kernel);
  /// ps.push_piece_us stays their sum for dashboard compatibility.
  /// Never touches the clock table.
  void ApplyPushPiece(int partition, int worker, int clock,
                      const SparseVector& local_piece);

  /// Runs fn(0..count-1) on the apply pool, blocking until all complete
  /// (per-call latch — the pool is shared across concurrent pushes, so
  /// ThreadPool::Wait() is not usable). A task the pool refuses
  /// (shutdown race) runs inline on the calling thread instead of being
  /// dropped, so the latch can never undercount.
  void RunOnApplyPool(int count, const std::function<void(int)>& fn);

  /// ## Content-tag encoding
  ///
  /// A tag names the byte content of one partition's materialized block:
  ///
  ///   bit 61      — versioned bit: 1 = stable-version snapshot tag
  ///                 (deferred DynSGD under partition_sync), 0 = live tag
  ///   bits 47..60 — pull epoch (mod 2^14), bumped on every checkpoint
  ///                 restore so restored state can never alias a tag
  ///                 handed out before the restore
  ///   bits 0..46  — value: the shard's data_version (live tags) or the
  ///                 master's stable version (versioned tags)
  ///
  /// Equal tags imply byte-identical content: data_version is a monotone
  /// per-shard push count (ServerShard), a stable version's snapshot is
  /// time-invariant (ConsolidationRule::SupportsVersionedSnapshots), and
  /// the epoch separates pre-/post-restore stamps. The sign bit stays 0,
  /// so every real tag is >= 0 and kNoCachedTag (-1) never collides.
  int64_t MakeTag(bool versioned, int64_t value) const;
  /// High (epoch + versioned) bits of `tag` match the current epoch and
  /// the expected versioned bit — i.e. TagValue() is comparable.
  bool TagInCurrentEpoch(int64_t tag, bool versioned) const;

  /// Content tag of `shard` for a read at `version` (-1 = live): the
  /// stable version itself when versioned snapshots apply, else the
  /// shard's data_version. Call under the shard's mutex.
  int64_t ContentTag(const ServerShard& shard, int64_t version) const;

  /// Builds one partition's share of a pull response. Takes only the
  /// shard mutex (L2); `cmax_now` and `version` are pre-snapshotted by
  /// the caller (L1 before L2 discipline).
  PartitionPull BuildPartitionPull(int partition, int worker, int cmax_now,
                                   int64_t version, int64_t cached_tag,
                                   int64_t* bytes_full_out);

  /// Lazily creates the apply pool (first parallel push apply), sized
  /// by push_parallelism.
  ThreadPool* ApplyPool();

  /// Records `worker`'s push of `clock` in the clock table and wakes
  /// blocked SSP waiters when cmin advances. Takes L1 only; must be
  /// called with no shard mutex held. Also records the update's SSP
  /// staleness (clock - cmin) into worker.staleness{worker=m} — the one
  /// choke point every runtime (threaded, RPC, simulated) pushes
  /// through.
  void AdvanceClock(int worker, int clock);

  const int num_workers_;
  PsOptions options_;
  Partitioner partitioner_;
  Master master_;

  // Whether the consolidation rule treats empty pushes as no-ops (lets
  // PushPieces skip empty and absent pieces). Immutable after
  // construction.
  bool empty_push_is_noop_ = false;
  // Whether the rule's MaterializeAtVersion snapshots are genuine and
  // time-invariant at stable versions (deferred DynSGD). Gates the
  // versioned tag mode: rules that fall back to the live value would
  // otherwise produce false cache hits under a constant stable version.
  bool versioned_snapshots_ = false;

  // Pull-epoch for tag invalidation: bumped on every LoadCheckpoint
  // commit so tags handed out before a restore can never match tags
  // computed after it (restored shards restart their version stamps).
  std::atomic<uint32_t> pull_epoch_{0};

  // Apply pool: shard-parallel push application runs its per-partition
  // tasks here. Created lazily under pool_mu_; sized by
  // options_.push_parallelism. Tasks synchronize with their issuing
  // call through a per-call latch (the pool is shared across concurrent
  // pushes, so ThreadPool::Wait() — which waits for *all* tasks — is
  // not usable here).
  std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> apply_pool_;

  // L1 — always acquired before any shard_mu_ (never after).
  mutable std::mutex clock_mu_;
  std::condition_variable clock_cv_;
  ClockTable clock_table_;

  // L2 — one mutex per shard; shards_[p] serves partition p. Multiple
  // shard mutexes are only ever held together in increasing index order.
  std::vector<std::unique_ptr<ServerShard>> shards_;
  mutable std::vector<std::unique_ptr<std::mutex>> shard_mu_;

  // Telemetry in GlobalMetrics() (pointers cached at construction so
  // the hot paths never look up by name). All recording is wait-free.
  Counter* push_counter_;
  Counter* push_bytes_;
  // Push wire accounting (names fixed by the obs schema): pieces is the
  // number of partition-local payloads shipped, bytes_shipped their
  // sparse wire cost. Counted once per logical push in PushPieces.
  Counter* push_pieces_counter_;
  Counter* push_bytes_shipped_;
  Counter* pull_counter_;
  // Version-aware pull path accounting (names fixed by the obs schema):
  // cache_hit counts unchanged partitions, partitions_shipped counts
  // dense/sparse/delta payloads, bytes_saved = full-ship cost minus
  // bytes actually shipped.
  Counter* pull_cache_hit_;
  Counter* pull_partitions_shipped_;
  Counter* pull_bytes_shipped_;
  Counter* pull_bytes_saved_;
  Counter* pull_delta_hits_;
  Counter* worker_evicted_;
  Counter* cmin_repairs_;
  Counter* evicted_pushes_dropped_;
  Gauge* blocked_workers_;
  HistogramMetric* admission_wait_us_;
  // Per-partition push timing: piece_us = lock_wait_us + apply_us (the
  // sum is kept for dashboard compatibility; the split makes shard-lock
  // contention visible separately from consolidation kernel time).
  std::vector<HistogramMetric*> push_piece_us_;      // per partition
  std::vector<HistogramMetric*> push_lock_wait_us_;  // per partition
  std::vector<HistogramMetric*> push_apply_us_;      // per partition
  std::vector<HistogramMetric*> pull_piece_us_;      // per partition
  std::vector<HistogramMetric*> staleness_;      // per worker
};

}  // namespace hetps

#endif  // HETPS_PS_PARAMETER_SERVER_H_
