#include "ps/master.h"

#include <algorithm>

#include "util/logging.h"

namespace hetps {

Master::Master(int num_partitions)
    : versions_(static_cast<size_t>(num_partitions), 0) {
  HETPS_CHECK(num_partitions > 0) << "need at least one partition";
}

void Master::ReportVersion(int p, int64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& v = versions_.at(static_cast<size_t>(p));
  v = std::max(v, version);
}

int64_t Master::StableVersion() const {
  std::lock_guard<std::mutex> lock(mu_);
  return *std::min_element(versions_.begin(), versions_.end());
}

int64_t Master::PartitionVersion(int p) const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_.at(static_cast<size_t>(p));
}

std::vector<int64_t> Master::VersionSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_;
}

void Master::RestoreVersions(const std::vector<int64_t>& versions) {
  std::lock_guard<std::mutex> lock(mu_);
  HETPS_CHECK(versions.size() == versions_.size())
      << "version snapshot size mismatch";
  versions_ = versions;
}

}  // namespace hetps
