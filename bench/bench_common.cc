#include "bench_common.h"

#include <cstdio>
#include <fstream>

#include "obs/json.h"
#include "util/logging.h"
#include "util/rng.h"

namespace hetps {
namespace bench {

Dataset MakeUrlLike(double scale, uint64_t seed) {
  Dataset d = GenerateSynthetic(UrlLikeConfig(scale, seed));
  Rng rng(seed ^ 0xABCD);
  d.Shuffle(&rng);
  return d;
}

Dataset MakeCtrLike(double scale, uint64_t seed) {
  Dataset d = GenerateSynthetic(CtrLikeConfig(scale, seed));
  Rng rng(seed ^ 0xABCD);
  d.Shuffle(&rng);
  return d;
}

double UrlTolerance() { return 0.40; }
double CtrTolerance() { return 0.45; }

std::vector<double> SigmaGridFor(const SystemModel& system) {
  // Accumulate rules add every update at full weight, so they only
  // converge with very small local rates (§7.4.1) — smaller still when
  // pulls are throttled (SSP) and local replicas drift between refreshes.
  if (system.rule->name() == "SspSGD") {
    if (system.sync.protocol == Protocol::kSsp) {
      return {5e-4, 1e-3, 2e-3};
    }
    return {1e-3, 2e-3, 4e-3, 8e-3};  // BSP/ASP refresh every clock
  }
  // The heterogeneity-aware rules tolerate single-worker-scale rates.
  return {0.5, 1.0, 2.0, 4.0};
}

SystemRun RunSystem(const SystemModel& system, const Dataset& dataset,
                    const ClusterConfig& base_cluster,
                    const LossFunction& loss, SimOptions options,
                    const std::vector<double>* sigma_override) {
  options.sync = system.sync;
  if (system.batch_fraction_override > 0.0) {
    options.batch_fraction = system.batch_fraction_override;
  }
  const ClusterConfig cluster = system.AdjustCluster(base_cluster);
  const std::vector<double> sigmas =
      sigma_override != nullptr ? *sigma_override : SigmaGridFor(system);
  GridSearchResult grid = GridSearchLearningRate(
      dataset, cluster, *system.rule, loss, options, sigmas);
  SystemRun run;
  run.system = system.name;
  run.best_sigma = grid.best.sigma;
  run.decayed = grid.best.decayed;
  run.result = grid.best.result;
  return run;
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FmtInt(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

namespace {

using Node = BenchReport::Node;

std::string Quote(const std::string& s) { return '"' + JsonEscape(s) + '"'; }

std::string Number(double v) {
  std::string text;
  AppendJsonDouble(&text, v);
  return text;
}

/// Member `key` of object `node`, appended empty when absent.
Node* Member(Node* node, const std::string& key) {
  for (auto& [k, v] : node->members) {
    if (k == key) return &v;
  }
  node->members.emplace_back(key, Node());
  return &node->members.back().second;
}

/// Renders `node` with two spaces of indent per level.
void AppendNode(const Node& node, int indent, std::string* out) {
  if (!node.text.empty()) {
    *out += node.text;
    return;
  }
  *out += "{\n";
  const std::string pad(static_cast<size_t>(indent) + 2, ' ');
  for (size_t i = 0; i < node.members.size(); ++i) {
    *out += pad + Quote(node.members[i].first) + ": ";
    AppendNode(node.members[i].second, indent + 2, out);
    *out += i + 1 < node.members.size() ? ",\n" : "\n";
  }
  *out += std::string(static_cast<size_t>(indent), ' ') + "}";
}

/// The value at '.'-separated `path` under `root`, created (with its
/// sections) on first use.
std::string* Slot(Node* root, const std::string& path) {
  const std::string top = path.substr(0, path.find('.'));
  HETPS_CHECK(top != "bench" && top != "schema" && top != "gates")
      << "BenchReport key '" << top << "' is reserved";
  Node* node = root;
  for (size_t begin = 0;;) {
    const size_t dot = path.find('.', begin);
    node = Member(node, path.substr(begin, dot - begin));
    if (dot == std::string::npos) break;
    HETPS_CHECK(node->text.empty())
        << "'" << path.substr(0, dot) << "' is a value, not a section";
    begin = dot + 1;
  }
  HETPS_CHECK(node->members.empty()) << "'" << path << "' is a section";
  return &node->text;
}

}  // namespace

BenchReport::BenchReport(std::string bench, std::string out_path)
    : bench_(std::move(bench)), out_path_(std::move(out_path)) {}

void BenchReport::Set(const std::string& path, double value) {
  *Slot(&values_, path) = Number(value);
}

void BenchReport::Set(const std::string& path, bool value) {
  *Slot(&values_, path) = value ? "true" : "false";
}

void BenchReport::Set(const std::string& path, const std::string& value) {
  *Slot(&values_, path) = Quote(value);
}

void BenchReport::Set(const std::string& path, const char* value) {
  Set(path, std::string(value));
}

void BenchReport::Gate(const std::string& name, double value, GateOp op,
                       double bound, const std::string& skip_reason) {
  static const char* const kOps[] = {">=", ">", "<=", "<"};
  const bool pass = op == GateOp::kAtLeast ? value >= bound
                    : op == GateOp::kAbove ? value > bound
                    : op == GateOp::kAtMost ? value <= bound
                                            : value < bound;
  AddGate(name, Number(value), kOps[static_cast<int>(op)], Number(bound),
          pass, skip_reason);
}

void BenchReport::Require(const std::string& name, bool value) {
  AddGate(name, value ? "true" : "false", "==", "true", value, "");
}

void BenchReport::AddGate(const std::string& name, const std::string& value,
                          const std::string& op, const std::string& bound,
                          bool pass, const std::string& skip_reason) {
  Node& gate = *Member(&gates_, name);
  gate.members = {{"value", {value, {}}},
                  {"op", {Quote(op), {}}},
                  {"bound", {bound, {}}},
                  {"pass", {pass ? "true" : "false", {}}}};
  if (!skip_reason.empty()) {
    gate.members.emplace_back("skipped", Node{Quote(skip_reason), {}});
  } else if (!pass) {
    failures_.push_back("FAIL: " + bench_ + " gate " + name + " = " + value +
                        ", needs " + op + " " + bound);
  }
}

int BenchReport::Finish() const {
  Node doc{"",
           {{"bench", {Quote(bench_), {}}},
            {"schema", {Quote("hetps.bench.v2"), {}}}}};
  doc.members.insert(doc.members.end(), values_.members.begin(),
                     values_.members.end());
  doc.members.emplace_back("gates", gates_);
  std::string text;
  AppendNode(doc, 0, &text);
  std::ofstream out(out_path_);
  out << text << "\n";
  out.close();
  if (!out) {
    std::printf("FAIL: could not write %s\n", out_path_.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path_.c_str());
  for (const std::string& line : failures_) std::printf("%s\n", line.c_str());
  return failures_.empty() ? 0 : 1;
}

}  // namespace bench
}  // namespace hetps
