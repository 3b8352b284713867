#ifndef HETPS_PERFBENCH_SPANS_H_
#define HETPS_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_stats.h"

namespace perfbench {

/// The layer calls the traced run wraps, each named after the public
/// function it times.
enum SpanName : int {
  kWorkerClock = 0,  // one worker clock: the root of every other span
  kRunClock,         // LocalWorkerSgd::RunClock
  kObjective,        // Dataset::ObjectiveSample
  kClientPush,       // WorkerClient::Push
  kClientPull,       // WorkerClient::MaybePull
  kNetPush,          // RpcWorkerClient::Push
  kNetPull,          // RpcWorkerClient::PullCached
  kNetAdmission,     // RpcWorkerClient::WaitUntilCanAdvance
  kRunSimulation,    // RunSimulation
  kNumSpanNames,
};

const char* SpanNameString(int name);

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Spans of one thread, kept in memory until the run ends. Not shared
/// between threads: every worker thread owns one buffer.
struct SpanBuffer {
  std::vector<Span> spans;
  int open = -1;  // innermost open span, the parent of the next one
};

/// Records one span into `buffer` for its lifetime; a null buffer
/// records nothing, which is how the untraced runs share the loop code.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, SpanName name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  int index_ = -1;
};

/// Durations of every span with one name, and their summed self time.
struct SpanStats {
  std::vector<double> durations_us;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Per-name statistics over all buffers, plus the unattributed share of
/// the root spans.
struct SpanSummary {
  SpanStats by_name[kNumSpanNames];
  double unattributed_share = 0.0;
};
SpanSummary Summarize(const std::vector<SpanBuffer>& buffers);

/// A bucketed-histogram difference between two registry snapshots.
struct HistDelta {
  std::vector<int64_t> counts;
  int64_t count = 0;
  double sum = 0.0;
  double Quantile(double q) const;
};

/// Every histogram and counter of the program's global metrics registry
/// at one instant. The traced run takes one before and one after, and
/// reads the server-side layers from the difference.
class RegistrySnapshot {
 public:
  /// Histograms are captured only for the named families (registry
  /// names without labels); counters are captured whole.
  static RegistrySnapshot Take(const std::vector<std::string>& families);

  /// after - before, summed over every series of family `name`; with
  /// `labels` ({"op=push", ...}), only over series carrying one of them.
  static HistDelta Histogram(const RegistrySnapshot& before,
                             const RegistrySnapshot& after,
                             const std::string& name,
                             const std::vector<std::string>& labels = {});
  static int64_t Counter(const RegistrySnapshot& before,
                         const RegistrySnapshot& after,
                         const std::string& name);

 private:
  struct HistState {
    std::vector<int64_t> counts;
    int64_t count = 0;
    double sum = 0.0;
  };
  std::map<std::string, HistState> hists_;
  std::map<std::string, int64_t> counters_;
};

}  // namespace perfbench

#endif  // HETPS_PERFBENCH_SPANS_H_
