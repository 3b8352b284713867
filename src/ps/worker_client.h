#ifndef HETPS_PS_WORKER_CLIENT_H_
#define HETPS_PS_WORKER_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <optional>
#include <vector>

#include "math/sparse_vector.h"
#include "obs/breakdown.h"
#include "ps/parameter_server.h"
#include "ps/push_window.h"
#include "ps/replica_cache.h"

namespace hetps {

/// Worker-side handle implementing the client half of Algorithm 1: push
/// the per-clock update, track the cached cmin (cp), and refresh the
/// replica only when the SSP policy requires it.
///
/// ## Partition replica cache (version-aware pull path)
///
/// The client keeps a ReplicaCache: a *pristine* copy of the last server
/// state it received plus one content tag per partition. Every pull is
/// one ParameterServer::PullDelta whose pieces the cache applies, and
/// the caller gets a copy. With `delta_pull` on (default) the pull sends
/// the cached tags, and the PS answers per partition with nothing (tag
/// unchanged), a whole block, or a sparse delta applied on top of the
/// cached copy. With it off the pull sends no tags, so every partition
/// ships whole, in its cheaper layout.
///
/// ## Threading & the push pipeline
///
/// One instance per worker thread; not shareable across threads. Two
/// background tasks exist:
///
/// 1. The prefetch task: between StartPrefetch() and FinishPrefetch()
///    it owns the replica cache, so the owner thread must not pull in
///    that window (checked). Push *is* allowed to overlap a prefetch —
///    that is the entire point of prefetching (Appendix D) — but only
///    for clocks strictly before the prefetched one (checked): pushing
///    the prefetched clock itself while its pull is still in flight is
///    a loop-sequencing bug.
///
/// 2. The push window (`push_window >= 1`, see PushWindow): Push()
///    queues the update and returns so the owner computes clock c+1
///    while the push of clock c is in flight. The worker's own unsent
///    pushes keep its clock-table entry (hence cmin) low, so pipelining
///    is self-limiting under SSP: a worker can run at most `push_window`
///    clocks ahead of what the server has consolidated from it, on top
///    of the policy's staleness bound. PullBlocking drains the window
///    first (read-your-writes: a refresh must observe this worker's own
///    updates), as do Flush() and the destructor. At `push_window == 0`
///    the update goes straight to ParameterServer::Push, uncopied.
///
/// The destructor cancels/joins any in-flight prefetch, so a
/// WorkerClient can be destroyed (and the PS torn down after it) even
/// while a prefetch is blocked in the SSP admission wait.
class WorkerClient {
 public:
  /// `delta_pull` sends the cached tags with each pull; off = every
  /// partition ships whole (kept for A/B). `push_window` bounds the
  /// asynchronous push pipeline: 0 = synchronous pushes (today's path,
  /// bitwise-identical), >= 1 = at most that many pushes in flight
  /// behind a background sender.
  WorkerClient(int worker_id, ParameterServer* ps, bool delta_pull = true,
               int push_window = 0);
  ~WorkerClient();

  WorkerClient(const WorkerClient&) = delete;
  WorkerClient& operator=(const WorkerClient&) = delete;

  int worker_id() const { return worker_id_; }
  int push_window() const { return window_.window(); }

  /// Pushes the local update that finishes `clock`. With a push window,
  /// enqueues and returns — blocking only while the window is full.
  void Push(int clock, const SparseVector& update);

  /// Drains the push pipeline: blocks until every enqueued push has been
  /// applied by the server. No-op when push_window is 0 or nothing is in
  /// flight. Also refreshes breakdown().push_hidden_seconds.
  void Flush();

  /// Algorithm 1 lines 8-9: returns true (and refreshes `*replica`) if the
  /// cached cmin forces a pull before starting `clock + 1`. Blocks while
  /// the SSP constraint denies the next clock.
  bool MaybePull(int clock, std::vector<double>* replica);

  /// Unconditional blocking pull for `next_clock` (used at start-up).
  void PullBlocking(int next_clock, std::vector<double>* replica);

  /// Parameter pre-fetching (Appendix D): starts the SSP admission wait
  /// and the pull on a background thread so they overlap with this
  /// clock's computation. At most one prefetch may be in flight. The
  /// prefetched state is slightly staler than an on-demand pull (it can
  /// miss pushes arriving between the prefetch and its consumption) —
  /// the usual prefetching trade.
  void StartPrefetch(int next_clock);

  /// True if a prefetch is in flight.
  bool prefetch_active() const { return prefetch_.has_value(); }

  /// Installs the prefetched replica (blocking until it is ready).
  /// Returns false — leaving `replica` untouched — if none was started
  /// (or the prefetch was cancelled).
  bool FinishPrefetch(std::vector<double>* replica);

  /// cp — the cmin returned by the last pull.
  int cached_cmin() const { return cached_cmin_; }

  /// Pushes and pulls performed (for tests and traces).
  int64_t push_count() const { return push_count_; }
  int64_t pull_count() const { return pull_count_; }

  /// Cumulative wire accounting of this client's pulls: content bytes
  /// the server actually shipped vs. what cache-less pulls would have
  /// cost, each partition's whole block in its cheaper layout (the
  /// server's DeltaPullResult::bytes_full). Equal when delta_pull is off.
  int64_t pulled_bytes() const { return pulled_bytes_; }
  int64_t pulled_bytes_full() const { return pulled_bytes_full_; }

  /// Content tags of the cached partitions (tests / introspection).
  const std::vector<int64_t>& cached_tags() const { return cache_.tags(); }

  /// Where this worker's PS-facing time went (Figure 6's comm vs. SSP
  /// wait; compute_seconds stays 0 — the trainer owns compute).
  /// Prefetch waits count only the un-overlapped remainder (the block
  /// inside FinishPrefetch), which is exactly the time prefetching
  /// failed to hide.
  const WorkerTimeBreakdown& breakdown() const { return breakdown_; }

 private:
  struct PrefetchResult {
    bool valid = false;
    std::vector<double> replica;
    int cmin = 0;
  };

  /// One blocking pull into `*replica`: applies a PullDelta to cache_,
  /// then copies it into the caller's buffer. Returns the pull's cmin.
  /// Runs on the owner thread or the prefetch task — never both at once
  /// (see class comment).
  int DoPull(std::vector<double>* replica);

  /// Cancels and joins an in-flight prefetch (destructor path).
  void CancelPrefetch();

  int worker_id_;
  ParameterServer* ps_;
  bool delta_pull_;
  int cached_cmin_ = 0;
  int64_t push_count_ = 0;
  int64_t pull_count_ = 0;
  int64_t pulled_bytes_ = 0;
  int64_t pulled_bytes_full_ = 0;

  // Pristine last-received server state.
  ReplicaCache cache_;

  std::optional<std::future<PrefetchResult>> prefetch_;
  int prefetch_clock_ = -1;
  std::atomic<bool> cancel_prefetch_{false};
  WorkerTimeBreakdown breakdown_;

  // Declared last: destroyed (drained) before anything its sends use.
  PushWindow<SparseVector> window_;
};

}  // namespace hetps

#endif  // HETPS_PS_WORKER_CLIENT_H_
