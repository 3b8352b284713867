#include "ps/run_spec.h"

#include <cmath>
#include <cstdio>

namespace hetps {
namespace {

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

Status RunSpec::Invalid(const std::string& what, double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%g", value);
  return Status::InvalidArgument(what + ", got " + text);
}

Status RunSpec::Validate() const {
  // Algorithm 1 admits clock c while c <= cmin + s: with s < 0 no worker
  // is ever admitted past its first clock.
  if (sync.staleness < 0) {
    return Invalid("staleness must be >= 0", sync.staleness);
  }
  if (max_clocks <= 0) {
    return Invalid("max_clocks must be positive", max_clocks);
  }
  if (!FiniteNonNegative(l2)) return Invalid("l2 must be >= 0", l2);
  if (!(batch_fraction > 0.0 && batch_fraction <= 1.0)) {
    return Invalid("batch_fraction must be in (0, 1]", batch_fraction);
  }
  if (partitions_per_server <= 0) {
    return Invalid("partitions_per_server must be positive",
                   partitions_per_server);
  }
  if (!FiniteNonNegative(update_filter_epsilon)) {
    return Invalid("update_filter_epsilon must be >= 0",
                   update_filter_epsilon);
  }
  if (!FiniteNonNegative(heartbeat_timeout_seconds)) {
    return Invalid("heartbeat_timeout_seconds must be >= 0",
                   heartbeat_timeout_seconds);
  }
  return rebalance ? balancer.Validate() : Status::OK();
}

PsOptions RunSpec::MakePsOptions(int num_servers,
                                 int push_parallelism) const {
  PsOptions ps;
  ps.num_servers = num_servers;
  ps.partitions_per_server = partitions_per_server;
  ps.scheme = scheme;
  ps.sync = sync;
  ps.update_filter_epsilon = update_filter_epsilon;
  ps.partition_sync = partition_sync;
  ps.push_parallelism = push_parallelism;
  return ps;
}

Status ValidateClusterForDataset(int num_workers, int num_servers,
                                 const Dataset& dataset) {
  if (static_cast<size_t>(num_workers) > dataset.size()) {
    return Status::InvalidArgument(
        dataset.empty() ? "empty dataset" : "more workers than examples");
  }
  if (num_servers > dataset.dimension()) {
    return Status::InvalidArgument("more servers than features");
  }
  return Status::OK();
}

}  // namespace hetps
