#include "obs/run_reporter.h"

#include <cstdlib>
#include <fstream>

#include "obs/json.h"

namespace hetps {

RunReporter::RunReporter(RunReporterOptions options,
                         MetricsRegistry* registry, TraceRecorder* trace)
    : options_(std::move(options)), registry_(registry), trace_(trace) {
  if (!options_.timeseries_out.empty()) {
    timeseries_ = std::make_unique<TimeSeriesRecorder>(registry_);
  }
  if (!options_.flightrec_out.empty()) {
    // Event-triggered black-box dumps and the final write share one
    // destination, so a crash between them still leaves a file.
    FlightRecorder::Global().SetDumpPath(options_.flightrec_out);
  }
}

void RunReporter::OnEpoch(int epoch) {
  if (timeseries_ != nullptr && !external_ts_clock_) {
    timeseries_->Snapshot(epoch);
  }
  if (options_.report_every <= 0 || options_.metrics_out.empty()) return;
  if (epoch % options_.report_every != 0) return;
  // Best effort mid-run; the final write surfaces persistent IO errors.
  (void)WriteMetricsJson(options_.metrics_out, epoch,
                         /*final_snapshot=*/false);
}

Status RunReporter::WriteFinal() {
  if (!options_.metrics_out.empty()) {
    HETPS_RETURN_NOT_OK(WriteMetricsJson(options_.metrics_out,
                                         /*epoch=*/-1,
                                         /*final_snapshot=*/true));
  }
  if (!options_.trace_out.empty()) {
    HETPS_RETURN_NOT_OK(WriteTraceJson(options_.trace_out));
  }
  if (timeseries_ != nullptr) {
    // Flush window: whatever accumulated since the last epoch hook
    // (e.g. the victim's final partial clock) still lands in a window.
    // An external clock owner (the simulator) writes its own flush
    // window with a virtual timestamp instead.
    if (!external_ts_clock_) timeseries_->Snapshot(/*epoch=*/-1);
    HETPS_RETURN_NOT_OK(
        timeseries_->WriteToFile(options_.timeseries_out));
  }
  if (!options_.flightrec_out.empty()) {
    HETPS_RETURN_NOT_OK(
        FlightRecorder::Global().WriteToFile(options_.flightrec_out));
  }
  return Status::OK();
}

std::string RunReporter::MetricsJsonString(int epoch,
                                           bool final_snapshot) const {
  std::string os = "{\"schema\":\"hetps.metrics.v2\",\"epoch\":";
  os += std::to_string(epoch);
  os += ",\"final\":";
  os += final_snapshot ? "true" : "false";
  os += ",\"run\":{";
  bool first = true;
  for (const auto& [k, v] : options_.run_info) {
    if (!first) os += ',';
    first = false;
    os += '"' + JsonEscape(k) + "\":\"" + JsonEscape(v) + '"';
  }
  os += "},\"metrics\":";
  os += registry_->JsonSnapshot();
  os += '}';
  return os;
}

Status RunReporter::WriteMetricsJson(const std::string& path, int epoch,
                                     bool final_snapshot) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status::IOError("cannot open " + path);
  file << MetricsJsonString(epoch, final_snapshot);
  file.flush();
  return file ? Status::OK()
              : Status::IOError("failed writing " + path);
}

Status RunReporter::WriteTraceJson(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status::IOError("cannot open " + path);
  HETPS_RETURN_NOT_OK(trace_->WriteJson(file));
  file.flush();
  return file ? Status::OK()
              : Status::IOError("failed writing " + path);
}

namespace {

Status RequireNumber(const JsonValue& obj, const char* key,
                     const char* context) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument(std::string(context) +
                                   ": missing numeric \"" + key + "\"");
  }
  return Status::OK();
}

Status ValidateMetricsSection(const JsonValue& metrics) {
  if (!metrics.is_object()) {
    return Status::InvalidArgument("\"metrics\" is not an object");
  }
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* s = metrics.Find(section);
    if (s == nullptr || !s->is_object()) {
      return Status::InvalidArgument(
          std::string("\"metrics\": missing object \"") + section + "\"");
    }
  }
  for (const auto& [name, c] : metrics.Find("counters")->object) {
    if (!c.is_number()) {
      return Status::InvalidArgument("counter " + name +
                                     " is not a number");
    }
  }
  for (const auto& [name, g] : metrics.Find("gauges")->object) {
    if (!g.is_number()) {
      return Status::InvalidArgument("gauge " + name +
                                     " is not a number");
    }
  }
  for (const auto& [name, h] : metrics.Find("histograms")->object) {
    for (const char* field : {"count", "sum", "mean", "min", "max",
                              "p50", "p90", "p99", "p999"}) {
      HETPS_RETURN_NOT_OK(
          RequireNumber(h, field, ("histogram " + name).c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateMetricsJson(const std::string& text) {
  auto parsed = ParseJson(text);
  HETPS_RETURN_NOT_OK(parsed.status());
  const JsonValue& doc = parsed.value();
  if (!doc.is_object()) {
    return Status::InvalidArgument("metrics.json: not an object");
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value != "hetps.metrics.v2") {
    // Distinguish "written by a newer build" from "not a metrics.json
    // at all": a hetps.metrics.vN with N > 2 gets a clear upgrade
    // message instead of a generic mismatch (which downstream tools
    // would follow with a partial, garbled parse).
    if (schema != nullptr && schema->is_string()) {
      const std::string& s = schema->string_value;
      const std::string prefix = "hetps.metrics.v";
      if (s.size() > prefix.size() && s.compare(0, prefix.size(), prefix) == 0 &&
          s.find_first_not_of("0123456789", prefix.size()) ==
              std::string::npos &&
          std::strtol(s.c_str() + prefix.size(), nullptr, 10) > 2) {
        return Status::InvalidArgument(
            "metrics.json: schema \"" + s +
            "\" is too new for this build (understands "
            "hetps.metrics.v2); upgrade hetps_train");
      }
    }
    return Status::InvalidArgument(
        "metrics.json: schema is not \"hetps.metrics.v2\"");
  }
  HETPS_RETURN_NOT_OK(RequireNumber(doc, "epoch", "metrics.json"));
  const JsonValue* final_flag = doc.Find("final");
  if (final_flag == nullptr || !final_flag->is_bool()) {
    return Status::InvalidArgument("metrics.json: missing bool \"final\"");
  }
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr) {
    return Status::InvalidArgument("metrics.json: missing \"metrics\"");
  }
  return ValidateMetricsSection(*metrics);
}

Status ValidateChromeTraceJson(const std::string& text) {
  auto parsed = ParseJson(text);
  HETPS_RETURN_NOT_OK(parsed.status());
  const JsonValue& doc = parsed.value();
  if (!doc.is_object()) {
    return Status::InvalidArgument("trace.json: not an object");
  }
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument(
        "trace.json: missing \"traceEvents\" array");
  }
  size_t index = 0;
  bool have_last_ts = false;
  double last_ts = 0.0;
  for (const JsonValue& ev : events->array) {
    const std::string context = "traceEvents[" + std::to_string(index) +
                                "]";
    ++index;
    if (!ev.is_object()) {
      return Status::InvalidArgument(context + " is not an object");
    }
    const JsonValue* name = ev.Find("name");
    if (name == nullptr || !name->is_string() ||
        name->string_value.empty()) {
      return Status::InvalidArgument(context + ": bad \"name\"");
    }
    const JsonValue* ph = ev.Find("ph");
    if (ph == nullptr || !ph->is_string() ||
        ph->string_value.size() != 1) {
      return Status::InvalidArgument(context + ": bad \"ph\"");
    }
    HETPS_RETURN_NOT_OK(RequireNumber(ev, "ts", context.c_str()));
    HETPS_RETURN_NOT_OK(RequireNumber(ev, "pid", context.c_str()));
    HETPS_RETURN_NOT_OK(RequireNumber(ev, "tid", context.c_str()));
    if (ph->string_value == "X") {
      HETPS_RETURN_NOT_OK(RequireNumber(ev, "dur", context.c_str()));
      if (ev.Find("dur")->number_value < 0) {
        return Status::InvalidArgument(context + ": negative dur");
      }
    }
    if (ph->string_value == "s" || ph->string_value == "f") {
      // Flow halves correlate by id; a flow event without one can
      // never bind and renders as a dangling arrow.
      const JsonValue* id = ev.Find("id");
      if (id == nullptr || (!id->is_string() && !id->is_number()) ||
          (id->is_string() && id->string_value.empty())) {
        return Status::InvalidArgument(context + ": flow event without"
                                       " \"id\"");
      }
    }
    if (ph->string_value == "M") continue;  // metadata: ts is nominal
    // The writer merges per-thread rings sorted by timestamp, so
    // out-of-order events mean a corrupt or hand-edited file.
    const double ts = ev.Find("ts")->number_value;
    if (have_last_ts && ts < last_ts) {
      return Status::InvalidArgument(context +
                                     ": timestamps out of order");
    }
    have_last_ts = true;
    last_ts = ts;
  }
  return Status::OK();
}

}  // namespace hetps
