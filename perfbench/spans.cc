#include "spans.h"

#include <chrono>

#include "obs/histogram.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

using hetps::BucketedHistogram;

bool InFamily(const std::string& key, const std::string& name) {
  return key.compare(0, name.size(), name) == 0 &&
         (key.size() == name.size() || key[name.size()] == '{');
}

// Labels of a registry key "name{k=v,k2=v2}".
hetps::MetricLabels ParseLabels(const std::string& key) {
  hetps::MetricLabels labels;
  const size_t open = key.find('{');
  if (open == std::string::npos || key.back() != '}') return labels;
  const std::string body = key.substr(open + 1, key.size() - open - 2);
  size_t pos = 0;
  while (pos <= body.size()) {
    size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    const std::string kv = body.substr(pos, comma - pos);
    const size_t eq = kv.find('=');
    if (eq != std::string::npos) {
      labels.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    }
    pos = comma + 1;
  }
  return labels;
}

bool HasAnyLabel(const std::string& key,
                 const std::vector<std::string>& labels) {
  if (labels.empty()) return true;
  for (const auto& [k, v] : ParseLabels(key)) {
    for (const std::string& label : labels) {
      if (k + "=" + v == label) return true;
    }
  }
  return false;
}

}  // namespace

const char* SpanNameString(int name) {
  static constexpr const char* kNames[kNumSpanNames] = {
      "worker.clock", "core.run_clock",  "eval.objective",
      "client.push",  "client.pull",     "net.push",
      "net.pull",     "net.admission",   "sim.run_simulation"};
  return name >= 0 && name < kNumSpanNames ? kNames[name] : "unknown";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScopedSpan::ScopedSpan(SpanBuffer* buffer, SpanName name)
    : buffer_(buffer) {
  if (buffer_ == nullptr) return;
  index_ = static_cast<int>(buffer_->spans.size());
  buffer_->spans.push_back(Span{name, buffer_->open, NowNs(), 0});
  buffer_->open = index_;
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  Span& span = buffer_->spans[static_cast<size_t>(index_)];
  span.end_ns = NowNs();
  buffer_->open = span.parent;
}

SpanSummary Summarize(const std::vector<SpanBuffer>& buffers) {
  // One span list over all threads, parents re-indexed into it.
  std::vector<Span> all;
  for (const SpanBuffer& buffer : buffers) {
    const int offset = static_cast<int>(all.size());
    for (Span s : buffer.spans) {
      if (s.parent >= 0) s.parent += offset;
      all.push_back(s);
    }
  }
  const std::vector<int64_t> self = SelfTimes(all);
  SpanSummary summary;
  for (size_t i = 0; i < all.size(); ++i) {
    SpanStats& stats = summary.by_name[all[i].name];
    const double us =
        static_cast<double>(all[i].end_ns - all[i].start_ns) / 1e3;
    stats.durations_us.push_back(us);
    stats.total_us += us;
    stats.self_us += static_cast<double>(self[i]) / 1e3;
  }
  summary.unattributed_share = UnattributedShare(all, self);
  return summary;
}

double HistDelta::Quantile(double q) const {
  std::vector<int64_t> lower(counts.size());
  std::vector<int64_t> upper(counts.size());
  for (size_t b = 0; b < counts.size(); ++b) {
    lower[b] = BucketedHistogram::BucketLowerBound(b);
    upper[b] = BucketedHistogram::BucketUpperBound(b);
  }
  return BucketQuantile(counts, lower, upper, q);
}

RegistrySnapshot RegistrySnapshot::Take(
    const std::vector<std::string>& families) {
  hetps::MetricsRegistry& registry = hetps::GlobalMetrics();
  const hetps::MetricsSnapshot values = registry.SnapshotValues();
  RegistrySnapshot snap;
  snap.counters_ = values.counters;
  for (const auto& entry : values.histograms) {
    const std::string& key = entry.first;
    const std::string name = key.substr(0, key.find('{'));
    bool wanted = false;
    for (const std::string& f : families) wanted = wanted || name == f;
    if (!wanted) continue;
    BucketedHistogram* h = registry.histogram(name, ParseLabels(key));
    HistState state;
    state.counts.resize(BucketedHistogram::kNumBuckets);
    for (size_t b = 0; b < BucketedHistogram::kNumBuckets; ++b) {
      state.counts[b] = h->BucketCount(b);
    }
    state.count = h->count();
    state.sum = h->sum();
    snap.hists_.emplace(key, std::move(state));
  }
  return snap;
}

HistDelta RegistrySnapshot::Histogram(const RegistrySnapshot& before,
                                      const RegistrySnapshot& after,
                                      const std::string& name,
                                      const std::vector<std::string>& labels) {
  const HistState empty{
      std::vector<int64_t>(BucketedHistogram::kNumBuckets, 0), 0, 0.0};
  HistDelta delta;
  delta.counts.assign(BucketedHistogram::kNumBuckets, 0);
  for (const auto& [key, state] : after.hists_) {
    if (!InFamily(key, name) || !HasAnyLabel(key, labels)) continue;
    const auto it = before.hists_.find(key);
    const HistState& base = it == before.hists_.end() ? empty : it->second;
    for (size_t b = 0; b < state.counts.size(); ++b) {
      delta.counts[b] += state.counts[b] - base.counts[b];
    }
    delta.count += state.count - base.count;
    delta.sum += state.sum - base.sum;
  }
  return delta;
}

int64_t RegistrySnapshot::Counter(const RegistrySnapshot& before,
                                  const RegistrySnapshot& after,
                                  const std::string& name) {
  const auto a = after.counters_.find(name);
  if (a == after.counters_.end()) return 0;
  const auto b = before.counters_.find(name);
  return a->second - (b == before.counters_.end() ? 0 : b->second);
}

}  // namespace perfbench
