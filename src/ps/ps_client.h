#ifndef HETPS_PS_PS_CLIENT_H_
#define HETPS_PS_PS_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "math/sparse_vector.h"
#include "obs/breakdown.h"
#include "obs/metrics.h"
#include "ps/parameter_server.h"
#include "ps/partition.h"
#include "ps/push_window.h"
#include "ps/replica_cache.h"
#include "util/status.h"

namespace hetps {

/// What a client learns from the server before its first push or pull.
struct ServerLayout {
  Partitioner partitioner;
  /// The §5.3 update filter the client applies before it splits a push.
  double filter_epsilon = 0.0;
};

/// The transport under a PsClient: one worker's view of the parameter
/// server. Two implementations: in process over a ParameterServer
/// (WorkerClient) and over the message bus to a PsService
/// (RpcWorkerClient). Push runs on the push window's sender thread at
/// window >= 1; PullDelta and WaitUntilCanAdvance also run on a prefetch
/// task; Layout runs once, before everything else.
class PsChannel {
 public:
  PsChannel() = default;
  virtual ~PsChannel() = default;
  PsChannel(const PsChannel&) = delete;
  PsChannel& operator=(const PsChannel&) = delete;

  virtual Result<ServerLayout> Layout() = 0;

  /// Applies one push's pieces (see PushPieceList).
  virtual Status Push(int clock, const PushPieceList& pieces) = 0;

  /// One delta pull against one content tag per partition. bytes_full
  /// is the channel's whole-pull baseline.
  virtual Status PullDelta(const std::vector<int64_t>& tags,
                           DeltaPullResult* out) = 0;

  /// FailedPrecondition once the worker is evicted; Aborted once
  /// `*cancel` is set (WakeWaiters wakes a blocked call to see it; a
  /// polling wait needs no wake).
  virtual Status WaitUntilCanAdvance(int next_clock,
                                     const std::atomic<bool>* cancel) = 0;
  virtual void WakeWaiters() {}

  /// Bus operations: the in-process channel answers NotSupported.
  virtual Status ReportClock(int clock, double seconds);
  virtual Status Readmit(int clock);
};

/// The worker half of Algorithm 1 over any channel: push the per-clock
/// update, wait for SSP admission, pull into a replica, and track the
/// cached cmin (cp). One per worker, owned by one thread.
///
/// A push is validated against the server's layout (the handshake runs
/// on the first push or pull), filtered, split by partition, and handed
/// to a PushWindow: sent inline at push_window 0, else queued behind a
/// background sender. The first failed async push is latched and
/// returned by the next call that drains the window — Push, Flush, and
/// the admission and pull calls, which drain first (read-your-writes).
/// Only the owner thread drains the window; a prefetch never does.
///
/// A pull is one PullDelta applied to a ReplicaCache (the pristine last
/// server state plus one content tag per partition), and the caller's
/// replica becomes the cache's values: refreshed in place when the caller
/// lists the keys it wrote (see PullCached), else copied whole.
/// `delta_pull` sends the cached tags, so only changed partitions ship;
/// off, every partition ships whole. A delta whose base tag the cache no
/// longer holds is re-pulled whole, up to 3 round trips, then Internal.
///
/// A prefetch (Appendix D) runs the admission wait and the pull on a
/// background task that owns the cache until FinishPrefetch: meanwhile
/// the owner may push earlier clocks but not pull (both checked). The
/// destructor cancels and joins a prefetch, then drains the window.
class PsClient {
 public:
  PsClient(int worker_id, std::unique_ptr<PsChannel> channel,
           bool delta_pull, int push_window);
  virtual ~PsClient();

  PsClient(const PsClient&) = delete;
  PsClient& operator=(const PsClient&) = delete;

  int worker_id() const { return worker_id_; }
  int push_window() const { return window_.window(); }

  /// InvalidArgument for a key outside [0, dim), else the send's status
  /// (window 0) or the latched async error (window >= 1).
  Status Push(int clock, const SparseVector& update);

  /// Drains the push window and returns the latched async error, if any.
  Status Flush();

  /// Drains the window, then blocks until the server admits `next_clock`
  /// (Algorithm 1 line 8).
  Status WaitUntilCanAdvance(int next_clock);

  /// Drains the window and pulls (Algorithm 1 line 9): `*replica` becomes
  /// the server's state bit for bit; `*cmin` (may be null) its cmin.
  ///
  /// `written` (may be null) lists every key of `*replica` the caller
  /// wrote since this client last filled that buffer; repeats are fine.
  /// If `*replica` is that buffer — the one the last successful pull on
  /// the owner thread filled, or FinishPrefetch installed — the pull
  /// refreshes it in place in O(changed + written keys): the cache apply
  /// writes each value it changes into it, then the written keys are
  /// reset from the cache. Every other pull copies the whole cache: the
  /// first pull, a pull into another buffer, the pull after a failed pull
  /// or a StartPrefetch, and a pull with no list. On an error the client
  /// forgets the buffer, which may hold part of a refresh.
  Status PullCached(std::vector<double>* replica, int* cmin,
                    const std::vector<int64_t>* written = nullptr);

  /// WaitUntilCanAdvance(next_clock), then PullCached.
  Status PullBlocking(int next_clock, std::vector<double>* replica);

  /// At most one prefetch may be in flight (checked).
  Status StartPrefetch(int next_clock);
  bool prefetch_active() const { return prefetch_.has_value(); }

  /// Blocks until the prefetch is done and installs its replica (a whole
  /// copy of the cache, since compute wrote the live replica meanwhile);
  /// on an error (FailedPrecondition: none started) `*replica` is
  /// untouched.
  Status FinishPrefetch(std::vector<double>* replica);

  Status ReportClock(int clock, double seconds);

  /// Drains the window, clears its latch, then asks to be readmitted.
  Status Readmit(int clock);

  /// cp: the cmin returned by the last pull.
  int cached_cmin() const { return cached_cmin_; }

  int64_t push_count() const { return push_count_; }
  int64_t pull_count() const { return pull_count_; }

  /// Content bytes this client's pulls received, and the channel's
  /// whole-pull baseline for the same pulls: the server's whole-block
  /// bytes in process, dim × 8 per pull on the bus.
  int64_t pulled_bytes() const { return pulled_bytes_; }
  int64_t pulled_bytes_full() const { return pulled_bytes_full_; }

  /// Content tags of the cached partitions (empty before the handshake).
  const std::vector<int64_t>& cached_tags() const {
    return cache_.has_value() ? cache_->tags() : no_tags_;
  }

  /// Push time the window hid behind the owner's work (settled by Flush).
  double push_hidden_seconds() const { return window_.hidden_seconds(); }

  /// Comm (pushes, drains, pulls, clock reports) and SSP wait time; a
  /// prefetch's wait is only the block in FinishPrefetch. compute_seconds
  /// stays 0: the caller owns compute.
  const WorkerTimeBreakdown& breakdown() const { return breakdown_; }

 protected:
  PsChannel* channel() const { return channel_.get(); }

 private:
  struct PrefetchResult {
    Status status;
    std::vector<double> replica;
    int cmin = 0;
  };

  /// Runs the layout handshake once and builds the cache.
  Status EnsureLayout();
  /// Runs on the owner thread or the prefetch task, never both at once.
  /// With `written`, refreshes `*replica` in place (the caller checked it
  /// is the filled buffer); without, copies the cache into it.
  Status Pull(std::vector<double>* replica, int* cmin,
              const std::vector<int64_t>* written);
  void CancelPrefetch();

  const int worker_id_;
  const std::unique_ptr<PsChannel> channel_;
  const bool delta_pull_;
  double filter_epsilon_ = 0.0;
  /// What a delta_pull-off pull sends: kNoCachedTag per partition.
  std::vector<int64_t> no_tags_;
  std::optional<ReplicaCache> cache_;  // built by the handshake
  /// Data of the buffer the last successful owner-thread pull filled (or
  /// FinishPrefetch installed): it equals the cache except at keys the
  /// caller wrote since. Null before the first pull, after a failed one,
  /// and from StartPrefetch on, whose task changes the cache alone.
  const double* filled_ = nullptr;
  /// client.replica_refresh_us (the written-key reset or the whole copy,
  /// one sample per pull) and client.replica_full_copies.
  HistogramMetric* refresh_us_;
  Counter* full_copies_;
  int cached_cmin_ = 0;
  int64_t push_count_ = 0;
  int64_t pull_count_ = 0;
  int64_t pulled_bytes_ = 0;
  int64_t pulled_bytes_full_ = 0;

  std::optional<std::future<PrefetchResult>> prefetch_;
  int prefetch_clock_ = -1;
  std::atomic<bool> cancel_prefetch_{false};
  WorkerTimeBreakdown breakdown_;

  // Declared last: destroyed (drained) before anything its sends use.
  PushWindow<PushPieceList> window_;
};

}  // namespace hetps

#endif  // HETPS_PS_PS_CLIENT_H_
