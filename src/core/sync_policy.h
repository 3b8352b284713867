#ifndef HETPS_CORE_SYNC_POLICY_H_
#define HETPS_CORE_SYNC_POLICY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hetps {

/// Synchronization protocol family (§2.2, §3). SSP subsumes the others:
/// s = 0 yields BSP; s = +inf with the pull-throttle disabled yields ASP.
enum class Protocol {
  kBsp,
  kAsp,
  kSsp,
};

const char* ProtocolName(Protocol p);

/// Parameter-synchronization policy shared by the simulator and the
/// threaded runtime.
struct SyncPolicy {
  Protocol protocol = Protocol::kSsp;
  /// Staleness threshold s; fastest worker may lead the slowest by at most
  /// s clocks. Ignored for ASP.
  int staleness = 3;

  static SyncPolicy Bsp() { return {Protocol::kBsp, 0}; }
  static SyncPolicy Asp() {
    return {Protocol::kAsp, std::numeric_limits<int>::max() / 2};
  }
  static SyncPolicy Ssp(int s) { return {Protocol::kSsp, s}; }

  /// True if a worker that finished clock `clock` must refresh its replica
  /// before continuing, given the cmin it cached at its last pull
  /// (Algorithm 1 line 8: `if cp < c - s`). ASP refreshes every clock but
  /// never blocks.
  bool NeedsPull(int clock, int cached_cmin) const;

  /// True if a worker may begin `next_clock` when the slowest worker has
  /// finished `cmin` clocks (Algorithm 1 server line 7: c <= cmin + s).
  /// The comparison is evaluated in 64-bit: staleness can be as large as
  /// INT_MAX/2 (Asp()), so `cmin + staleness` in int would be UB.
  bool CanAdvance(int next_clock, int cmin) const;

  std::string DebugString() const;
};

/// Tracks each worker's clock and maintains cmin / cmax — the server-side
/// bookkeeping of Algorithms 1 and 2 — over a *live membership set*. A
/// dead worker would otherwise pin cmin forever and deadlock every SSP
/// admission wait; EvictWorker removes it from the cmin computation so
/// the gate can repair itself. Within a run the set only ever shrinks:
/// nothing re-adds an evicted worker (only Restore, which starts a run
/// over from a checkpoint, fills it again).
class ClockTable {
 public:
  explicit ClockTable(int num_workers);

  int num_workers() const { return static_cast<int>(clocks_.size()); }

  /// Records that `worker` pushed the update that finishes clock `clock`.
  /// Advances cmin while all *live* workers have finished it (Algorithm 1
  /// lines 4-5) and raises cmax (Algorithm 2 lines 14-15). Returns true
  /// if cmin advanced (callers use this to wake blocked pulls).
  ///
  /// Monotone per worker: a stale or duplicate push (clock + 1 <= the
  /// worker's recorded clock) is *dropped* — logged, counted in
  /// dropped_regressions(), and returns false — instead of moving the
  /// clock backwards and corrupting the cmin/cmax invariants. A late push
  /// from an evicted worker is likewise dropped and counted in
  /// evicted_drops().
  bool OnPush(int worker, int clock);

  /// Removes `worker` from the live membership set and recomputes cmin
  /// over the remaining live workers — the liveness repair. cmin never
  /// decreases (survivors' clocks are all >= it); cmax is NOT lowered:
  /// the evicted worker's pushes were already consolidated into shard
  /// state, so reads must keep stamping at or above those versions.
  /// Returns true if cmin advanced (callers wake blocked admission
  /// waits). Evicting an already-evicted worker is a no-op returning
  /// false, as is evicting the last live worker (an empty membership set
  /// has no meaningful cmin — the table is left untouched).
  bool EvictWorker(int worker);

  bool is_live(int worker) const {
    return live_[static_cast<size_t>(worker)] != 0;
  }
  int num_live() const { return num_live_; }

  /// Stale/duplicate pushes dropped by OnPush since construction.
  int64_t dropped_regressions() const { return dropped_regressions_; }
  /// Pushes from evicted workers dropped by OnPush since construction.
  int64_t evicted_drops() const { return evicted_drops_; }

  int clock(int worker) const { return clocks_.at(worker); }
  int cmin() const { return cmin_; }
  int cmax() const { return cmax_; }

  /// Checkpointing: the per-worker clocks fully determine the table.
  /// Restore revives every worker — a checkpoint predates any eviction
  /// decisions, and a restarted cluster begins with full membership.
  const std::vector<int>& clocks() const { return clocks_; }
  void Restore(const std::vector<int>& clocks);

 private:
  /// Advances cmin while every live worker's clock exceeds it.
  bool AdvanceCmin();

  std::vector<int> clocks_;
  std::vector<char> live_;
  int num_live_ = 0;
  int cmin_ = 0;
  int cmax_ = 0;
  int64_t dropped_regressions_ = 0;
  int64_t evicted_drops_ = 0;
};

}  // namespace hetps

#endif  // HETPS_CORE_SYNC_POLICY_H_
