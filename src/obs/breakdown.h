#ifndef HETPS_OBS_BREAKDOWN_H_
#define HETPS_OBS_BREAKDOWN_H_

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace hetps {

/// Per-worker breakdown of where a run's time went — Figure 6's stacked
/// bars (compute vs. communication vs. SSP wait). Shared by the event
/// simulator (virtual seconds) and both real trainers (wall seconds) so
/// every runtime exports the same schema.
struct WorkerTimeBreakdown {
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  double wait_seconds = 0.0;
  /// Push wall time the pipelined push path overlapped with compute
  /// (push duration minus the time the worker actually blocked on the
  /// pipeline). 0 with a synchronous push path — those seconds land in
  /// comm_seconds instead.
  double push_hidden_seconds = 0.0;
  int clocks_completed = 0;

  double PerClockCompute() const {
    return clocks_completed ? compute_seconds / clocks_completed : 0.0;
  }
  double PerClockComm() const {
    return clocks_completed ? comm_seconds / clocks_completed : 0.0;
  }
};

/// Publishes one worker's breakdown into GlobalMetrics() as labeled
/// gauges (worker.compute_seconds{worker=m} etc.) so metrics.json carries
/// the compute-vs-wait split without a bespoke schema per runtime.
inline void RecordBreakdown(int worker, const WorkerTimeBreakdown& b) {
  MetricsRegistry& metrics = GlobalMetrics();
  const MetricLabels labels = {{"worker", std::to_string(worker)}};
  metrics.gauge("worker.compute_seconds", labels)->Set(b.compute_seconds);
  metrics.gauge("worker.comm_seconds", labels)->Set(b.comm_seconds);
  metrics.gauge("worker.wait_seconds", labels)->Set(b.wait_seconds);
  metrics.gauge("worker.push_hidden_seconds", labels)
      ->Set(b.push_hidden_seconds);
  metrics.gauge("worker.clocks_completed", labels)
      ->Set(static_cast<double>(b.clocks_completed));
}

}  // namespace hetps

#endif  // HETPS_OBS_BREAKDOWN_H_
