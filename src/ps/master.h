#ifndef HETPS_PS_MASTER_H_
#define HETPS_PS_MASTER_H_

#include <cstdint>
#include <mutex>
#include <vector>

namespace hetps {

/// The master node of the prototype (Appendix D) in its §6 role:
/// version-based partition synchronization. Each partition reports its
/// current version; a worker asks for the "stable version" (the minimum
/// across partitions) before pulling. Who is live is the clock table's
/// business (ParameterServer), and each worker's clock times are the
/// ShardPlane's.
///
/// Thread-safe.
class Master {
 public:
  explicit Master(int num_partitions);

  /// Partition `p` reports it has created `version` global updates.
  void ReportVersion(int p, int64_t version);

  /// Lowest reported version across all partitions (§6 "stable version").
  int64_t StableVersion() const;

  int64_t PartitionVersion(int p) const;

  /// Checkpointing accessors.
  std::vector<int64_t> VersionSnapshot() const;
  void RestoreVersions(const std::vector<int64_t>& versions);

 private:
  mutable std::mutex mu_;
  std::vector<int64_t> versions_;
};

}  // namespace hetps

#endif  // HETPS_PS_MASTER_H_
