#ifndef HETPS_NET_HEARTBEAT_H_
#define HETPS_NET_HEARTBEAT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hetps {

/// The master's liveness tracking (Appendix D: "A master is established
/// to govern all the workers and parameter servers through sending
/// periodical heartbeat signals"). Nodes report heartbeats with their
/// own monotonic timestamps; a node is suspected dead once its last
/// heartbeat is older than the timeout. Time is injected by the caller
/// so both the simulator (simulated seconds) and the threaded runtime
/// (wall clock) can use it. Thread-safe.
class HeartbeatMonitor {
 public:
  explicit HeartbeatMonitor(double timeout_seconds);

  /// Registers a node; it starts alive as of `now`. Every runtime
  /// registers its workers once, at start, and nothing re-registers an
  /// unregistered node, so the registrations only shrink.
  void Register(const std::string& node, double now);

  /// Removes a node from monitoring (evicted or deliberately departed).
  /// Returns false if it was not registered. After this, late beats from
  /// the node are counted no-ops — they can never resurrect it.
  bool Unregister(const std::string& node);

  /// Records a heartbeat. A beat from an unknown node (never registered,
  /// or already unregistered/evicted) is a no-op counted in
  /// unknown_beats(): silently auto-registering here would let a single
  /// late beat from an evicted worker resurrect it behind the eviction
  /// logic's back.
  void Beat(const std::string& node, double now);

  /// Beats from unknown nodes dropped by Beat() since construction.
  int64_t unknown_beats() const;

  /// True if the node reported within the timeout window ending at `now`.
  bool IsAlive(const std::string& node, double now) const;

  /// Nodes whose last heartbeat is older than the timeout.
  std::vector<std::string> SuspectedDead(double now) const;

  /// Seconds since the node's last heartbeat (negative if unknown).
  double SecondsSinceLastBeat(const std::string& node, double now) const;

  size_t node_count() const;
  double timeout_seconds() const { return timeout_seconds_; }

 private:
  const double timeout_seconds_;
  mutable std::mutex mu_;
  std::map<std::string, double> last_beat_;
  int64_t unknown_beats_ = 0;
};

}  // namespace hetps

#endif  // HETPS_NET_HEARTBEAT_H_
