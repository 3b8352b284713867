#include "obs/run_reporter.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hetps {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

void PopulateLikeARun(MetricsRegistry* reg) {
  reg->counter("ps.push.count")->Increment(12);
  reg->counter("ps.push.bytes")->Increment(4096);
  reg->gauge("ps.blocked_workers")->Set(1);
  for (int i = 0; i < 100; ++i) {
    reg->histogram("ps.push_piece_us", {{"partition", "0"}})
        ->RecordInt(100 + i);
    reg->histogram("worker.staleness", {{"worker", "0"}})->RecordInt(i % 4);
  }
}

TEST(RunReporter, GoldenMetricsSchema) {
  MetricsRegistry reg;
  PopulateLikeARun(&reg);
  TraceRecorder trace;
  RunReporterOptions opt;
  opt.run_info = {{"rule", "dynsgd"}, {"workers", "4"}};
  RunReporter reporter(opt, &reg, &trace);

  const std::string text = reporter.MetricsJsonString(/*epoch=*/3,
                                                      /*final_snapshot=*/false);
  ASSERT_TRUE(ValidateMetricsJson(text).ok())
      << ValidateMetricsJson(text).ToString() << "\n"
      << text;

  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok());
  const JsonValue& d = doc.value();
  EXPECT_EQ(d.Find("schema")->string_value, "hetps.metrics.v2");
  EXPECT_DOUBLE_EQ(d.Find("epoch")->number_value, 3.0);
  EXPECT_FALSE(d.Find("final")->bool_value);
  EXPECT_EQ(d.Find("run")->Find("rule")->string_value, "dynsgd");

  const JsonValue* metrics = d.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(
      metrics->Find("counters")->Find("ps.push.count")->number_value, 12.0);
  EXPECT_DOUBLE_EQ(
      metrics->Find("gauges")->Find("ps.blocked_workers")->number_value, 1.0);
  const JsonValue* hist =
      metrics->Find("histograms")->Find("worker.staleness{worker=0}");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number_value, 100.0);
  // Staleness 0..3 uniformly: p50 in the linear (exact) region.
  EXPECT_LE(hist->Find("p50")->number_value, 2.0);
  EXPECT_GE(hist->Find("p99")->number_value, 3.0);
  // v2 is v1 minus the always-empty sections.
  EXPECT_EQ(metrics->Find("distributions"), nullptr);
  EXPECT_EQ(d.Find("sources"), nullptr);
}

TEST(RunReporter, WritesFilesAndEpochCadence) {
  MetricsRegistry reg;
  reg.counter("c")->Increment();
  TraceRecorder trace;
  trace.Start();
  trace.AppendInstant("mark");
  trace.Stop();

  RunReporterOptions opt;
  opt.metrics_out = TempPath("reporter_metrics.json");
  opt.trace_out = TempPath("reporter_trace.json");
  opt.report_every = 2;
  RunReporter reporter(opt, &reg, &trace);

  std::remove(opt.metrics_out.c_str());
  reporter.OnEpoch(1);  // 1 % 2 != 0 → no write
  EXPECT_FALSE(std::ifstream(opt.metrics_out).good());
  reporter.OnEpoch(2);  // mid-run snapshot
  {
    const std::string text = ReadFileOrDie(opt.metrics_out);
    auto doc = ParseJson(text);
    ASSERT_TRUE(doc.ok());
    EXPECT_DOUBLE_EQ(doc.value().Find("epoch")->number_value, 2.0);
    EXPECT_FALSE(doc.value().Find("final")->bool_value);
  }
  ASSERT_TRUE(reporter.WriteFinal().ok());
  const std::string text = ReadFileOrDie(opt.metrics_out);
  ASSERT_TRUE(ValidateMetricsJson(text).ok());
  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc.value().Find("final")->bool_value);
  const std::string trace_text = ReadFileOrDie(opt.trace_out);
  EXPECT_TRUE(ValidateChromeTraceJson(trace_text).ok()) << trace_text;
  std::remove(opt.metrics_out.c_str());
  std::remove(opt.trace_out.c_str());
}

TEST(RunReporter, WriteToBadPathFails) {
  MetricsRegistry reg;
  TraceRecorder trace;
  RunReporterOptions opt;
  opt.metrics_out = "/nonexistent-dir-hetps/metrics.json";
  RunReporter reporter(opt, &reg, &trace);
  EXPECT_FALSE(reporter.WriteFinal().ok());
}

TEST(ValidateMetricsJsonTest, RejectsMalformed) {
  EXPECT_FALSE(ValidateMetricsJson("not json").ok());
  EXPECT_FALSE(ValidateMetricsJson("{}").ok());
  EXPECT_FALSE(
      ValidateMetricsJson("{\"schema\":\"wrong\",\"epoch\":0}").ok());
  // Right schema tag but missing metric sections.
  EXPECT_FALSE(ValidateMetricsJson(
                   "{\"schema\":\"hetps.metrics.v2\",\"epoch\":0,"
                   "\"final\":true,\"metrics\":{}}")
                   .ok());
  // Histogram missing quantile fields.
  EXPECT_FALSE(
      ValidateMetricsJson(
          "{\"schema\":\"hetps.metrics.v2\",\"epoch\":0,\"final\":true,"
          "\"metrics\":{\"counters\":{},\"gauges\":{},"
          "\"histograms\":{\"h\":{\"count\":1}}}}")
          .ok());
  // A v1 document (the layout with "distributions" and "sources") is
  // refused, and the message names the schema this build reads.
  const Status v1 = ValidateMetricsJson(
      "{\"schema\":\"hetps.metrics.v1\",\"epoch\":0,\"final\":true,"
      "\"metrics\":{\"counters\":{},\"gauges\":{},"
      "\"distributions\":{},\"histograms\":{}},\"sources\":{}}");
  EXPECT_FALSE(v1.ok());
  EXPECT_NE(v1.message().find("hetps.metrics.v2"), std::string::npos)
      << v1.ToString();
  // v2 has no "distributions" section.
  const Status v2 = ValidateMetricsJson(
      "{\"schema\":\"hetps.metrics.v2\",\"epoch\":-1,\"final\":true,"
      "\"metrics\":{\"counters\":{\"c\":1},\"gauges\":{},"
      "\"histograms\":{}}}");
  EXPECT_TRUE(v2.ok()) << v2.ToString();
}

TEST(ValidateChromeTraceJsonTest, RejectsMalformed) {
  EXPECT_FALSE(ValidateChromeTraceJson("[]").ok());
  EXPECT_FALSE(ValidateChromeTraceJson("{\"traceEvents\":{}}").ok());
  EXPECT_FALSE(
      ValidateChromeTraceJson("{\"traceEvents\":[{\"ph\":\"X\"}]}").ok());
  // Complete span missing "dur".
  EXPECT_FALSE(ValidateChromeTraceJson(
                   "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\","
                   "\"ts\":0,\"pid\":0,\"tid\":0}]}")
                   .ok());
  EXPECT_TRUE(ValidateChromeTraceJson(
                  "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\","
                  "\"ts\":0,\"pid\":0,\"tid\":0,\"dur\":5}]}")
                  .ok());
}

TEST(ValidateChromeTraceJsonTest, FlowEventsRequireAnId) {
  // A flow half without an id renders as a dangling arrow — reject.
  EXPECT_FALSE(ValidateChromeTraceJson(
                   "{\"traceEvents\":[{\"name\":\"rpc\",\"ph\":\"s\","
                   "\"ts\":1,\"pid\":0,\"tid\":0}]}")
                   .ok());
  EXPECT_FALSE(ValidateChromeTraceJson(
                   "{\"traceEvents\":[{\"name\":\"rpc\",\"ph\":\"f\","
                   "\"ts\":1,\"pid\":0,\"tid\":0,\"id\":\"\"}]}")
                   .ok());
  EXPECT_TRUE(ValidateChromeTraceJson(
                  "{\"traceEvents\":["
                  "{\"name\":\"rpc\",\"ph\":\"s\",\"ts\":1,\"pid\":0,"
                  "\"tid\":0,\"id\":\"7\"},"
                  "{\"name\":\"rpc\",\"ph\":\"f\",\"ts\":2,\"pid\":1,"
                  "\"tid\":0,\"id\":\"7\",\"bp\":\"e\"}]}")
                  .ok());
}

TEST(ValidateChromeTraceJsonTest, TimestampOrdering) {
  // Data events must be non-decreasing in ts (the writer merges the
  // per-thread rings sorted).
  EXPECT_FALSE(ValidateChromeTraceJson(
                   "{\"traceEvents\":["
                   "{\"name\":\"a\",\"ph\":\"i\",\"ts\":10,\"pid\":0,"
                   "\"tid\":0},"
                   "{\"name\":\"b\",\"ph\":\"i\",\"ts\":5,\"pid\":0,"
                   "\"tid\":0}]}")
                   .ok());
  // Metadata events carry nominal timestamps and are exempt.
  EXPECT_TRUE(ValidateChromeTraceJson(
                  "{\"traceEvents\":["
                  "{\"name\":\"a\",\"ph\":\"i\",\"ts\":10,\"pid\":0,"
                  "\"tid\":0},"
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,"
                  "\"pid\":0,\"tid\":0},"
                  "{\"name\":\"b\",\"ph\":\"i\",\"ts\":11,\"pid\":0,"
                  "\"tid\":0}]}")
                  .ok());
}

TEST(RunReporter, WritesTimeSeriesAndFlightRecorder) {
  MetricsRegistry reg;
  Counter* pushes = reg.counter("ps.push.count");
  TraceRecorder trace;

  RunReporterOptions opt;
  opt.timeseries_out = TempPath("reporter_timeseries.json");
  opt.flightrec_out = TempPath("reporter_flightrec.json");
  RunReporter reporter(opt, &reg, &trace);
  ASSERT_NE(reporter.timeseries(), nullptr);

  FlightRecorder::Global().Clear();
  FlightRecorder::Global().Start(64);
  FlightRecorder::Global().Record("worker_evicted", 2, 5);

  pushes->Increment(3);
  reporter.OnEpoch(1);
  pushes->Increment(4);
  reporter.OnEpoch(2);
  pushes->Increment(1);
  ASSERT_TRUE(reporter.WriteFinal().ok());
  FlightRecorder::Global().Stop();

  const std::string ts_text = ReadFileOrDie(opt.timeseries_out);
  ASSERT_TRUE(ValidateTimeSeriesJson(ts_text).ok()) << ts_text;
  auto ts_doc = ParseJson(ts_text);
  ASSERT_TRUE(ts_doc.ok());
  const auto& windows = ts_doc.value().Find("windows")->array;
  // Two epoch windows plus the final flush window (epoch -1).
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_DOUBLE_EQ(windows[2].Find("epoch")->number_value, -1.0);
  EXPECT_DOUBLE_EQ(
      windows[1].Find("counters")->Find("ps.push.count")->number_value,
      4.0);

  const std::string fr_text = ReadFileOrDie(opt.flightrec_out);
  ASSERT_TRUE(ValidateFlightRecJson(fr_text).ok()) << fr_text;
  EXPECT_NE(fr_text.find("worker_evicted"), std::string::npos);

  FlightRecorder::Global().Clear();
  std::remove(opt.timeseries_out.c_str());
  std::remove(opt.flightrec_out.c_str());
}

TEST(RunReporter, ExternalTimeSeriesClockSkipsInternalWindows) {
  MetricsRegistry reg;
  Counter* c = reg.counter("c");
  TraceRecorder trace;
  RunReporterOptions opt;
  opt.timeseries_out = TempPath("reporter_ts_external.json");
  RunReporter reporter(opt, &reg, &trace);
  reporter.UseExternalTimeSeriesClock();

  c->Increment();
  reporter.OnEpoch(1);  // must NOT close a window
  reporter.timeseries()->SnapshotAt(/*epoch=*/1, /*ts_us=*/400);
  ASSERT_TRUE(reporter.WriteFinal().ok());  // must NOT add a flush window

  auto doc = ParseJson(ReadFileOrDie(opt.timeseries_out));
  ASSERT_TRUE(doc.ok());
  const auto& windows = doc.value().Find("windows")->array;
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_DOUBLE_EQ(windows[0].Find("ts_us")->number_value, 400.0);
  std::remove(opt.timeseries_out.c_str());
}

}  // namespace
}  // namespace hetps
