#ifndef HETPS_OBS_METRICS_H_
#define HETPS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace hetps {

/// Monotonic event counter. Thread-safe, lock-free on the hot path.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins numeric gauge (e.g. current memory bytes).
///
/// A default-constructed gauge reads 0.0 but reports
/// has_value() == false until the first Set(); expositions skip unset
/// gauges so "never measured" is distinguishable from "measured 0"
/// (the zero-initialization footgun the bits_{0} encoding had).
class Gauge {
 public:
  Gauge() = default;
  /// Gauge that starts set to `initial`.
  explicit Gauge(double initial) { Set(initial); }

  void Set(double v) {
    bits_.store(Encode(v), std::memory_order_relaxed);
    set_.store(true, std::memory_order_release);
  }
  void Add(double delta) {
    // Read-modify-write; last-write-wins under races (a gauge, not a
    // counter — use Counter for exact sums).
    Set(value() + delta);
  }
  double value() const {
    return Decode(bits_.load(std::memory_order_relaxed));
  }
  bool has_value() const { return set_.load(std::memory_order_acquire); }
  void Reset() {
    bits_.store(0, std::memory_order_relaxed);
    set_.store(false, std::memory_order_release);
  }

 private:
  static uint64_t Encode(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double Decode(uint64_t bits) {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<uint64_t> bits_{0};
  std::atomic<bool> set_{false};
};

/// Quantile-capable distribution: an HdrHistogram-style bucketed
/// histogram with wait-free Record and p50/p90/p99/p999 on read. The
/// registry's one distribution kind, for latencies and sizes alike.
using HistogramMetric = BucketedHistogram;

/// Label set for one member of a metric family, e.g.
/// {{"worker", "3"}}. Canonicalized (sorted by key) internally.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Point-in-time numeric view of every metric in a registry, keyed by
/// the registry's `name{label=value,...}` rendering — the
/// TimeSeriesRecorder's delta base. Histograms collapse to (count, sum);
/// quantiles stay on the JsonSnapshot path.
struct MetricsSnapshot {
  struct CountSum {
    int64_t count = 0;
    double sum = 0.0;
  };
  std::map<std::string, int64_t> counters;
  /// Set gauges only (unset gauges carry no information).
  std::map<std::string, double> gauges;
  std::map<std::string, CountSum> histograms;
};

/// A named collection of counters, gauges and histograms — the §7.5
/// monitoring plane. Metric objects are created on first use and live as
/// long as the registry; returned pointers stay valid (ResetValues()
/// clears values but never destroys metrics). Labeled overloads address
/// one member of a metric family ("ps.push_us" x partition).
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Counter* counter(const std::string& name, const MetricLabels& labels);
  Gauge* gauge(const std::string& name);
  Gauge* gauge(const std::string& name, const MetricLabels& labels);
  HistogramMetric* histogram(const std::string& name);
  HistogramMetric* histogram(const std::string& name,
                             const MetricLabels& labels);

  /// Prometheus text exposition (# TYPE lines; '.' sanitized to '_').
  /// Histograms render as `histogram` families with cumulative
  /// `_bucket{le="..."}` lines plus `_sum`/`_count`; unset gauges are
  /// skipped. Doubles render with %.6g.
  std::string PrometheusText() const;

  /// Structured numeric snapshot of every metric (see MetricsSnapshot).
  /// One registry lock acquisition; values are relaxed-atomic reads, so
  /// concurrent recorders see the usual monitoring-grade consistency.
  MetricsSnapshot SnapshotValues() const;

  /// JSON snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}}; keys are `name{label=value,...}`, unset gauges
  /// are skipped. Deterministically ordered.
  std::string JsonSnapshot() const;

  /// Zeroes every metric's value while keeping all returned pointers
  /// valid (counters -> 0, gauges -> unset, histograms -> empty). Use
  /// between runs sharing one process/registry.
  void ResetValues();

 private:
  /// Fully-qualified key: name + canonical label rendering.
  static std::string Key(const std::string& name,
                         const MetricLabels& labels);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

/// Scrape N minus scrape N−1: renders the change between two
/// MetricsSnapshots as JSON ({"counters": {key: delta}, "gauges":
/// {key: current}, "histograms": {key: {"count": dcount, "sum": dsum}}}).
/// Counters/histograms report cur − prev (series absent from prev use
/// prev = 0); gauges are levels, not rates, so they report cur as-is.
std::string MetricsDeltaJson(const MetricsSnapshot& prev,
                             const MetricsSnapshot& cur);

/// The process-wide registry. Every runtime layer (PS, client, bus,
/// service, trainers, simulator) records here, so one RunReporter
/// snapshot sees the whole system. Call GlobalMetrics().ResetValues() at
/// run boundaries when numbers must not accumulate across runs in one
/// process.
MetricsRegistry& GlobalMetrics();

}  // namespace hetps

#endif  // HETPS_OBS_METRICS_H_
