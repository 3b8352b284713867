#include "core/sync_policy.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace hetps {

const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kBsp:
      return "BSP";
    case Protocol::kAsp:
      return "ASP";
    case Protocol::kSsp:
      return "SSP";
  }
  return "?";
}

bool SyncPolicy::NeedsPull(int clock, int cached_cmin) const {
  if (protocol == Protocol::kAsp) {
    // ASP disables the cp throttle (§2.2): refresh every clock, no wait.
    return true;
  }
  // 64-bit: `clock - staleness` underflows int for ASP-scale staleness.
  return static_cast<int64_t>(cached_cmin) <
         static_cast<int64_t>(clock) - static_cast<int64_t>(staleness);
}

bool SyncPolicy::CanAdvance(int next_clock, int cmin) const {
  if (protocol == Protocol::kAsp) return true;
  // 64-bit: staleness may be INT_MAX/2 (Asp()), so `cmin + staleness`
  // in int is signed overflow (UB) once clocks grow.
  return static_cast<int64_t>(next_clock) <=
         static_cast<int64_t>(cmin) + static_cast<int64_t>(staleness);
}

std::string SyncPolicy::DebugString() const {
  std::ostringstream os;
  os << ProtocolName(protocol);
  if (protocol == Protocol::kSsp) os << "(s=" << staleness << ")";
  return os.str();
}

ClockTable::ClockTable(int num_workers)
    : clocks_(static_cast<size_t>(num_workers), 0),
      live_(static_cast<size_t>(num_workers), 1),
      num_live_(num_workers) {
  HETPS_CHECK(num_workers > 0) << "ClockTable needs at least one worker";
}

void ClockTable::Restore(const std::vector<int>& clocks) {
  HETPS_CHECK(clocks.size() == clocks_.size())
      << "clock snapshot size mismatch";
  clocks_ = clocks;
  // A checkpoint predates eviction decisions: full membership again.
  std::fill(live_.begin(), live_.end(), 1);
  num_live_ = num_workers();
  cmin_ = *std::min_element(clocks_.begin(), clocks_.end());
  cmax_ = *std::max_element(clocks_.begin(), clocks_.end());
}

bool ClockTable::AdvanceCmin() {
  bool advanced = false;
  for (;;) {
    bool all_done = true;
    for (size_t m = 0; m < clocks_.size(); ++m) {
      if (live_[m] != 0 && clocks_[m] <= cmin_) {
        all_done = false;
        break;
      }
    }
    if (!all_done) break;
    ++cmin_;
    advanced = true;
    // Bounded: cmin can never pass the highest live clock.
    if (cmin_ >= cmax_) break;
  }
  return advanced;
}

bool ClockTable::OnPush(int worker, int clock) {
  HETPS_CHECK(worker >= 0 && worker < num_workers())
      << "worker id out of range";
  // Membership guard: a late push from an evicted worker must not
  // re-enter the clock computation — its entry is no longer part of the
  // cmin min, and resurrecting it would re-freeze the admission gate.
  if (live_[static_cast<size_t>(worker)] == 0) {
    ++evicted_drops_;
    HETPS_LOG(Warning) << "ClockTable: dropped push from evicted worker "
                       << worker << " (clock " << clock << ")";
    return false;
  }
  // clock counts *finished* clocks: a push at clock c means c+1 finished.
  // The table is monotone per worker: a stale or duplicate push (possible
  // on the direct in-process WorkerClient::Push path, which bypasses the
  // PsService (worker, clock) dedup) must never move a worker's clock
  // backwards — that would corrupt the cmin/cmax invariants (cmin could
  // no longer be the min of finished clocks, and SSP admission decisions
  // already taken against the higher clock would become unsound).
  int& current = clocks_[static_cast<size_t>(worker)];
  if (clock + 1 <= current) {
    ++dropped_regressions_;
    HETPS_LOG(Warning) << "ClockTable: dropped clock regression for worker "
                       << worker << " (push clock " << clock
                       << ", already at " << current << ")";
    return false;
  }
  current = clock + 1;
  if (clock + 1 > cmax_) cmax_ = clock + 1;
  return AdvanceCmin();
}

bool ClockTable::EvictWorker(int worker) {
  HETPS_CHECK(worker >= 0 && worker < num_workers())
      << "worker id out of range";
  if (live_[static_cast<size_t>(worker)] == 0) return false;
  if (num_live_ == 1) {
    // Evicting the last live worker leaves no membership to define cmin;
    // keep the table as-is (the cluster is over either way).
    HETPS_LOG(Warning) << "ClockTable: refusing to evict last live worker "
                       << worker;
    return false;
  }
  live_[static_cast<size_t>(worker)] = 0;
  --num_live_;
  // cmin repair: the min over the survivors. Monotone — every live clock
  // is >= the old cmin, so the loop only moves forward. cmax stays: the
  // dead worker's consolidated pushes still exist in shard state.
  return AdvanceCmin();
}

}  // namespace hetps
