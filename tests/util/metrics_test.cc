#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace hetps {
namespace {

TEST(MetricsTest, CounterIncrements) {
  MetricsRegistry registry;
  Counter* c = registry.counter("pushes");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5);
  // Same name returns the same counter.
  EXPECT_EQ(registry.counter("pushes"), c);
  EXPECT_EQ(registry.counter("pushes")->value(), 5);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("memory");
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  g->Set(12.5);
  g->Set(-3.25);
  EXPECT_DOUBLE_EQ(g->value(), -3.25);
}

TEST(MetricsTest, DistributionAccumulates) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.histogram("latency");
  h->Record(1.0);
  h->Record(3.0);
  EXPECT_EQ(h->count(), 2);
  EXPECT_DOUBLE_EQ(h->mean(), 2.0);
  EXPECT_EQ(h->max(), 3);
}

TEST(MetricsTest, CountersAreThreadSafe) {
  MetricsRegistry registry;
  Counter* c = registry.counter("hits");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < 1000; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), 4000);
}

TEST(MetricsTest, ReportRendersAllKinds) {
  MetricsRegistry registry;
  registry.counter("a.count")->Increment(3);
  registry.gauge("b.gauge")->Set(1.5);
  registry.histogram("c.hist")->RecordInt(2);
  const std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b.gauge\":1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"c.hist\":{\"count\":1,"), std::string::npos)
      << json;
}

TEST(MetricsTest, UnsetGaugeIsDistinguishableAndSkipped) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("maybe");
  EXPECT_FALSE(g->has_value());
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  // Not rendered until set: "never measured" != "measured 0".
  EXPECT_EQ(registry.JsonSnapshot().find("maybe"), std::string::npos);
  EXPECT_EQ(registry.PrometheusText().find("maybe"), std::string::npos);
  g->Set(0.0);
  EXPECT_TRUE(g->has_value());
  EXPECT_NE(registry.JsonSnapshot().find("\"maybe\":0"), std::string::npos);
  EXPECT_NE(registry.PrometheusText().find("maybe 0\n"), std::string::npos);
  g->Reset();
  EXPECT_FALSE(g->has_value());
}

TEST(MetricsTest, LabeledFamiliesAreDistinctMembers) {
  MetricsRegistry registry;
  Counter* w0 = registry.counter("pushes", {{"worker", "0"}});
  Counter* w1 = registry.counter("pushes", {{"worker", "1"}});
  EXPECT_NE(w0, w1);
  w0->Increment(2);
  w1->Increment(5);
  // Labels are canonicalized (sorted by key) — order must not matter.
  Counter* relabeled =
      registry.counter("m", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(registry.counter("m", {{"a", "1"}, {"b", "2"}}), relabeled);
  const std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"pushes{worker=0}\":2"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"pushes{worker=1}\":5"), std::string::npos);
}

TEST(MetricsTest, HistogramReportsQuantiles) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.histogram("iter_us");
  for (int i = 1; i <= 100; ++i) h->RecordInt(i);
  EXPECT_EQ(registry.histogram("iter_us"), h);
  const std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"iter_us\":{\"count\":100,"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_GE(h->ValueAtQuantile(0.5), 45);
  EXPECT_LE(h->ValueAtQuantile(0.5), 55);
  EXPECT_GE(h->ValueAtQuantile(0.99), 94);
}

TEST(MetricsTest, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.counter("ps.push.count")->Increment(7);
  registry.gauge("mem.bytes")->Set(42.0);
  registry.gauge("ratio")->Set(0.3333333333333);
  registry.histogram("lat_us", {{"worker", "3"}})->RecordInt(10);
  const std::string text = registry.PrometheusText();
  // '.' sanitized to '_', TYPE lines present, labels preserved.
  EXPECT_NE(text.find("# TYPE ps_push_count counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ps_push_count 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mem_bytes gauge"), std::string::npos);
  // %.6g formatting: no trailing zero spray.
  EXPECT_NE(text.find("ratio 0.333333\n"), std::string::npos) << text;
  // Histograms expose the native exposition format: cumulative
  // `_bucket{le=...}` series plus `_sum`/`_count` (not summary
  // quantiles).
  EXPECT_NE(text.find("# TYPE lat_us histogram"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_us_bucket{worker=\"3\",le=\"+Inf\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_us_sum{worker=\"3\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("lat_us_count{worker=\"3\"} 1"),
            std::string::npos);
  EXPECT_EQ(text.find("quantile="), std::string::npos);
}

TEST(MetricsTest, PrometheusHistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.histogram("lat");
  // Three values in well-separated buckets: each occupied bucket's
  // count must include everything below it.
  h->RecordInt(1);
  h->RecordInt(100);
  h->RecordInt(10000);
  const std::string text = registry.PrometheusText();
  // Collect the bucket counts in emission (ascending-le) order.
  std::vector<long> counts;
  std::vector<double> bounds;
  size_t pos = 0;
  while ((pos = text.find("lat_bucket{le=\"", pos)) !=
         std::string::npos) {
    pos += 15;
    const size_t quote = text.find('"', pos);
    const std::string le = text.substr(pos, quote - pos);
    bounds.push_back(le == "+Inf"
                         ? std::numeric_limits<double>::infinity()
                         : std::stod(le));
    counts.push_back(std::stol(text.substr(quote + 2)));
  }
  ASSERT_EQ(counts.size(), 4u) << text;  // 3 occupied buckets + +Inf
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 3);
  EXPECT_EQ(counts[3], 3);
  // `le` bounds ascend and each value lies under its bucket's bound.
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end())) << text;
  EXPECT_GT(bounds[0], 1.0 - 1e-9);
  EXPECT_GT(bounds[1], 100.0 - 1e-9);
  EXPECT_GT(bounds[2], 10000.0 - 1e-9);
}

TEST(MetricsTest, JsonSnapshotShape) {
  MetricsRegistry registry;
  registry.counter("c")->Increment(2);
  registry.gauge("g")->Set(1.5);
  registry.histogram("h")->RecordInt(8);
  const std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // Three kinds, three sections.
  EXPECT_EQ(json.find("\"distributions\""), std::string::npos);
  EXPECT_NE(json.find("\"c\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsTest, ResetValuesKeepsPointersValid) {
  MetricsRegistry registry;
  Counter* c = registry.counter("c");
  Gauge* g = registry.gauge("g");
  HistogramMetric* h = registry.histogram("h");
  c->Increment(3);
  g->Set(2.0);
  h->RecordInt(5);
  registry.ResetValues();
  EXPECT_EQ(registry.counter("c"), c);
  EXPECT_EQ(c->value(), 0);
  EXPECT_FALSE(g->has_value());
  EXPECT_EQ(h->count(), 0);
  // Recording after reset works on the same objects.
  c->Increment();
  EXPECT_EQ(c->value(), 1);
}

}  // namespace
}  // namespace hetps
