#ifndef HETPS_OBS_RUN_REPORTER_H_
#define HETPS_OBS_RUN_REPORTER_H_

#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/status.h"

namespace hetps {

/// Where and how often a run's observability artifacts are written.
struct RunReporterOptions {
  /// metrics.json destination; empty disables metric snapshots.
  std::string metrics_out;
  /// Chrome trace.json destination; empty disables the trace dump.
  std::string trace_out;
  /// timeseries.json destination; empty disables windowed snapshots.
  /// When set, every OnEpoch call closes one TimeSeriesRecorder window
  /// (cadence = the trainer's epoch hook, i.e. worker-0 clocks).
  std::string timeseries_out;
  /// flightrec.json destination; empty disables the flight-record dump.
  /// When set, the global FlightRecorder's dump path is pointed here so
  /// event-triggered black-box dumps (eviction, fault, abnormal exit)
  /// land in the same file the final write refreshes.
  std::string flightrec_out;
  /// Snapshot metrics every N epochs (worker-0 clocks) in addition to
  /// the final write; 0 = final only. Intermediate snapshots overwrite
  /// metrics_out so the file always holds the freshest state (§7.5's
  /// monitor semantics: current, not historical).
  int report_every = 0;
  /// Extra free-form annotations copied into metrics.json's "run"
  /// object (rule, protocol, workers, ...).
  std::vector<std::pair<std::string, std::string>> run_info;
};

/// Snapshots the metrics registry and the trace recorder into on-disk
/// JSON at epoch boundaries and at end of run — the §7.5 monitoring
/// plane's reporting surface.
///
/// metrics.json schema (validated by ValidateMetricsJson and the golden
/// test):
///   {
///     "schema": "hetps.metrics.v2",
///     "epoch": <last epoch reported, -1 = final only>,
///     "final": true|false,
///     "run": {"key": "value", ...},
///     "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}
///   }
class RunReporter {
 public:
  explicit RunReporter(RunReporterOptions options,
                       MetricsRegistry* registry = &GlobalMetrics(),
                       TraceRecorder* trace = &TraceRecorder::Global());

  /// Epoch hook for trainers: writes a metrics snapshot when
  /// report_every divides `epoch` (and report_every > 0), and closes
  /// one time-series window when timeseries_out is set. Thread-safe
  /// against concurrent metric recording.
  void OnEpoch(int epoch);

  /// Writes the final metrics.json (final: true), trace.json,
  /// timeseries.json (after a final flush window, epoch -1), and
  /// flightrec.json.
  Status WriteFinal();

  Status WriteMetricsJson(const std::string& path, int epoch,
                          bool final_snapshot) const;
  Status WriteTraceJson(const std::string& path) const;

  /// Renders the metrics.json document as a string (the writer above,
  /// without the file).
  std::string MetricsJsonString(int epoch, bool final_snapshot) const;

  /// The windowed recorder behind timeseries_out (nullptr when
  /// disabled) — the simulator drives SnapshotAt through this.
  TimeSeriesRecorder* timeseries() { return timeseries_.get(); }

  /// Tells the reporter that someone else (the event simulator) closes
  /// time-series windows with explicit timestamps: OnEpoch stops
  /// wall-clock snapshotting and WriteFinal skips the flush window
  /// (the external clock owner writes its own), but the final file
  /// write still happens here.
  void UseExternalTimeSeriesClock() { external_ts_clock_ = true; }

  const RunReporterOptions& options() const { return options_; }

 private:
  RunReporterOptions options_;
  MetricsRegistry* registry_;
  TraceRecorder* trace_;
  std::unique_ptr<TimeSeriesRecorder> timeseries_;
  bool external_ts_clock_ = false;
};

/// Schema checkers used by tests, the CLI `check-obs` command, and CI.
/// Both parse with obs/json and verify the structural invariants (not
/// specific values).
Status ValidateMetricsJson(const std::string& text);
/// Chrome trace_event checker: top-level object with a "traceEvents"
/// array whose entries carry name/ph/ts/pid/tid (and dur for "X").
Status ValidateChromeTraceJson(const std::string& text);

}  // namespace hetps

#endif  // HETPS_OBS_RUN_REPORTER_H_
