#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace hetps {
namespace {

/// %.6g rendering for Prometheus values — stable across platforms
/// (ostream default formatting is locale- and width-dependent).
std::string Format6g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; dots and dashes map
/// to '_'.
std::string PromName(const std::string& key_name) {
  std::string out = key_name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

/// Label-value escaping per the Prometheus exposition format: backslash,
/// double-quote, and newline must be escaped inside label values.
std::string PromEscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Splits a registry key back into (name, rendered-labels).
/// Keys look like `name` or `name{k=v,k2=v2}`.
void SplitKey(const std::string& key, std::string* name,
              std::string* labels) {
  const size_t brace = key.find('{');
  if (brace == std::string::npos) {
    *name = key;
    labels->clear();
    return;
  }
  *name = key.substr(0, brace);
  *labels = key.substr(brace + 1, key.size() - brace - 2);
}

/// Renders `name{k=v,...}` as a Prometheus series `pname{k="v",...}`.
std::string PromSeries(const std::string& key) {
  std::string name, labels;
  SplitKey(key, &name, &labels);
  std::string out = PromName(name);
  if (labels.empty()) return out;
  out += '{';
  size_t pos = 0;
  bool first = true;
  while (pos < labels.size()) {
    size_t comma = labels.find(',', pos);
    if (comma == std::string::npos) comma = labels.size();
    const std::string pair = labels.substr(pos, comma - pos);
    const size_t eq = pair.find('=');
    if (!first) out += ',';
    first = false;
    if (eq == std::string::npos) {
      out += pair;
    } else {
      out += pair.substr(0, eq) + "=\"" +
             PromEscapeLabelValue(pair.substr(eq + 1)) + "\"";
    }
    pos = comma + 1;
  }
  out += '}';
  return out;
}

/// Appends one label to an already-rendered Prometheus series (the
/// `le` label on `_bucket` lines).
std::string SeriesWithLabel(const std::string& series, const std::string& k,
                            const std::string& v) {
  if (series.empty() || series.back() != '}') {
    return series + "{" + k + "=\"" + v + "\"}";
  }
  std::string out = series;
  out.pop_back();
  return out + "," + k + "=\"" + v + "\"}";
}

}  // namespace

std::string MetricsRegistry::Key(const std::string& name,
                                 const MetricLabels& labels) {
  if (labels.empty()) return name;
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name + "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i) key += ',';
    key += sorted[i].first + "=" + sorted[i].second;
  }
  key += '}';
  return key;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  return counter(name, {});
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[Key(name, labels)];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  return gauge(name, {});
}

Gauge* MetricsRegistry::gauge(const std::string& name,
                              const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[Key(name, labels)];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

HistogramMetric* MetricsRegistry::histogram(const std::string& name) {
  return histogram(name, {});
}

HistogramMetric* MetricsRegistry::histogram(const std::string& name,
                                            const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[Key(name, labels)];
  if (!slot) slot = std::make_unique<HistogramMetric>();
  return slot.get();
}

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string os;
  std::string last_family;
  auto type_line = [&](const std::string& key, const char* type) {
    std::string name, labels;
    SplitKey(key, &name, &labels);
    if (name != last_family) {
      os += "# TYPE " + PromName(name) + " " + type + "\n";
      last_family = name;
    }
  };
  for (const auto& [key, c] : counters_) {
    type_line(key, "counter");
    os += PromSeries(key) + ' ' + std::to_string(c->value()) + '\n';
  }
  last_family.clear();
  for (const auto& [key, g] : gauges_) {
    if (!g->has_value()) continue;
    type_line(key, "gauge");
    os += PromSeries(key) + ' ' + Format6g(g->value()) + '\n';
  }
  last_family.clear();
  for (const auto& [key, h] : histograms_) {
    type_line(key, "histogram");
    std::string name, labels;
    SplitKey(key, &name, &labels);
    const std::string bucket_series =
        PromSeries(key).insert(PromName(name).size(), "_bucket");
    // Cumulative buckets per the exposition format. Empty buckets are
    // elided (legal: the next emitted `le` carries their cumulative
    // count), which keeps the text proportional to occupied range, not
    // the ~600-bucket geometry.
    const std::vector<HistogramExemplar> exemplars = h->Exemplars();
    int64_t cumulative = 0;
    for (size_t i = 0; i < BucketedHistogram::kNumBuckets; ++i) {
      const int64_t in_bucket = h->BucketCount(i);
      if (in_bucket == 0) continue;
      cumulative += in_bucket;
      os += SeriesWithLabel(
                bucket_series, "le",
                std::to_string(BucketedHistogram::BucketUpperBound(i))) +
            ' ' + std::to_string(cumulative);
      // OpenMetrics-style exemplar suffix: the retained tail sample for
      // this bucket, linking the series to its trace span.
      for (const auto& ex : exemplars) {
        if (ex.bucket != i) continue;
        os += " # {trace_id=\"" + std::to_string(ex.trace_id) + "\"} " +
              std::to_string(ex.value);
        break;
      }
      os += '\n';
    }
    os += SeriesWithLabel(bucket_series, "le", "+Inf") + ' ' +
          std::to_string(h->count()) + '\n';
    os += PromSeries(key).insert(PromName(name).size(), "_sum") + ' ' +
          Format6g(h->sum()) + '\n';
    os += PromSeries(key).insert(PromName(name).size(), "_count") + ' ' +
          std::to_string(h->count()) + '\n';
  }
  return os;
}

MetricsSnapshot MetricsRegistry::SnapshotValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [key, c] : counters_) {
    snap.counters[key] = c->value();
  }
  for (const auto& [key, g] : gauges_) {
    if (g->has_value()) snap.gauges[key] = g->value();
  }
  for (const auto& [key, h] : histograms_) {
    snap.histograms[key] =
        MetricsSnapshot::CountSum{h->count(), h->sum()};
  }
  return snap;
}

std::string MetricsRegistry::JsonSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string os = "{";
  os += "\"counters\":{";
  bool first = true;
  for (const auto& [key, c] : counters_) {
    if (!first) os += ',';
    first = false;
    os += '"' + JsonEscape(key) + "\":" + std::to_string(c->value());
  }
  os += "},\"gauges\":{";
  first = true;
  for (const auto& [key, g] : gauges_) {
    if (!g->has_value()) continue;
    if (!first) os += ',';
    first = false;
    os += '"' + JsonEscape(key) + "\":";
    AppendJsonDouble(&os, g->value());
  }
  os += "},\"histograms\":{";
  first = true;
  for (const auto& [key, h] : histograms_) {
    if (!first) os += ',';
    first = false;
    os += '"' + JsonEscape(key) +
          "\":{\"count\":" + std::to_string(h->count()) + ",\"sum\":";
    AppendJsonDouble(&os, h->sum());
    os += ",\"mean\":";
    AppendJsonDouble(&os, h->mean());
    os += ",\"min\":" + std::to_string(h->min()) +
          ",\"max\":" + std::to_string(h->max()) +
          ",\"p50\":" + std::to_string(h->ValueAtQuantile(0.5)) +
          ",\"p90\":" + std::to_string(h->ValueAtQuantile(0.9)) +
          ",\"p99\":" + std::to_string(h->ValueAtQuantile(0.99)) +
          ",\"p999\":" + std::to_string(h->ValueAtQuantile(0.999)) +
          ",\"overflow\":" + std::to_string(h->overflow_count());
    const std::vector<HistogramExemplar> exemplars = h->Exemplars();
    if (!exemplars.empty()) {
      os += ",\"exemplars\":[";
      for (size_t i = 0; i < exemplars.size(); ++i) {
        if (i) os += ',';
        os += "{\"value\":" + std::to_string(exemplars[i].value) +
              ",\"trace_id\":" + std::to_string(exemplars[i].trace_id) +
              ",\"bucket\":" + std::to_string(exemplars[i].bucket) + '}';
      }
      os += ']';
    }
    os += '}';
  }
  os += "}}";
  return os;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, c] : counters_) c->Reset();
  for (auto& [key, g] : gauges_) g->Reset();
  for (auto& [key, h] : histograms_) h->Reset();
}

std::string MetricsDeltaJson(const MetricsSnapshot& prev,
                             const MetricsSnapshot& cur) {
  std::string os = "{\"counters\":{";
  bool first = true;
  for (const auto& [key, v] : cur.counters) {
    const auto it = prev.counters.find(key);
    const int64_t base = it == prev.counters.end() ? 0 : it->second;
    if (!first) os += ',';
    first = false;
    os += '"' + JsonEscape(key) + "\":" + std::to_string(v - base);
  }
  os += "},\"gauges\":{";
  first = true;
  for (const auto& [key, v] : cur.gauges) {
    if (!first) os += ',';
    first = false;
    os += '"' + JsonEscape(key) + "\":";
    AppendJsonDouble(&os, v);
  }
  os += "},\"histograms\":{";
  first = true;
  for (const auto& [key, cs] : cur.histograms) {
    const auto it = prev.histograms.find(key);
    const int64_t base_count =
        it == prev.histograms.end() ? 0 : it->second.count;
    const double base_sum =
        it == prev.histograms.end() ? 0.0 : it->second.sum;
    if (!first) os += ',';
    first = false;
    os += '"' + JsonEscape(key) +
          "\":{\"count\":" + std::to_string(cs.count - base_count) +
          ",\"sum\":";
    AppendJsonDouble(&os, cs.sum - base_sum);
    os += '}';
  }
  os += "}}";
  return os;
}

MetricsRegistry& GlobalMetrics() {
  // Leaked singleton: outlives every static destructor so late metric
  // writes during shutdown stay safe.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace hetps
