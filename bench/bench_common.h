#ifndef HETPS_BENCH_BENCH_COMMON_H_
#define HETPS_BENCH_BENCH_COMMON_H_

#include <string>
#include <utility>
#include <vector>

#include "baselines/system_models.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "engine/grid_search.h"
#include "math/loss.h"
#include "sim/cluster_config.h"
#include "sim/event_sim.h"
#include "util/string_util.h"

namespace hetps {
namespace bench {

/// Shuffled synthetic stand-ins for the paper's datasets (DESIGN.md §2).
Dataset MakeUrlLike(double scale = 1.0, uint64_t seed = 42);
Dataset MakeCtrLike(double scale = 1.0, uint64_t seed = 1337);

/// Convergence tolerances used throughout §7 (0.2 URL, 0.02 CTR scaled to
/// our synthetic shapes; see EXPERIMENTS.md "Calibration").
double UrlTolerance();
double CtrTolerance();

/// σ grid appropriate for a system: SSPSGD-style accumulate rules need
/// very small local rates, the heterogeneity-aware rules tolerate larger
/// ones (§7.4.1).
std::vector<double> SigmaGridFor(const SystemModel& system);

struct SystemRun {
  std::string system;
  double best_sigma = 0.0;
  bool decayed = false;
  SimResult result;
};

/// Runs `system` on `base_cluster` with the paper's protocol: grid-search
/// the learning rate, report the best run.
SystemRun RunSystem(const SystemModel& system, const Dataset& dataset,
                    const ClusterConfig& base_cluster,
                    const LossFunction& loss, SimOptions options,
                    const std::vector<double>* sigma_override = nullptr);

/// Number formatting helpers for paper-style tables.
std::string Fmt(double v, int precision = 2);
std::string FmtInt(int64_t v);

/// How a gate compares its value with its bound.
enum class GateOp {
  kAtLeast,  // value >= bound
  kAbove,    // value > bound
  kAtMost,   // value <= bound
  kBelow,    // value < bound
};

/// A self-gated bench's one output: the values it measured, grouped in
/// sections, and its acceptance gates. Finish() writes them as one
/// hetps.bench.v2 document:
///
///   {"bench": "<name>", "schema": "hetps.bench.v2",
///    "<section>": {"<key>": <value>, ...}, ...,
///    "gates": {"<gate>": {"value": v, "op": ">=", "bound": b,
///                         "pass": true}, ...}}
///
/// Sections and keys keep the order of their first Set. A skipped gate
/// also carries "skipped": "<reason>"; its "pass" still records the
/// comparison, but it cannot fail the bench.
class BenchReport {
 public:
  /// `bench` names the report; Finish() writes it to `out_path`.
  BenchReport(std::string bench, std::string out_path);

  /// Records `value` at a '.'-separated path: "active_isa" is a
  /// top-level key, "summary.e2e_speedup" a key of section "summary".
  /// Setting a path again overwrites its value. (The const char*
  /// overload keeps a string literal from converting to bool.)
  void Set(const std::string& path, double value);
  void Set(const std::string& path, bool value);
  void Set(const std::string& path, const std::string& value);
  void Set(const std::string& path, const char* value);

  /// Declares gate `name`, which passes when `value op bound` holds. A
  /// non-empty `skip_reason` records the gate without letting it fail.
  void Gate(const std::string& name, double value, GateOp op, double bound,
            const std::string& skip_reason = "");
  /// Declares gate `name`, which passes when `value` is true.
  void Require(const std::string& name, bool value);

  /// Writes the report to out_path and prints "wrote <path>", then one
  /// FAIL line per failing gate. Returns the bench's exit code: 1 when a
  /// gate that is not skipped fails or the file cannot be written, else 0.
  int Finish() const;

  /// A JSON value as its rendered text, or (with no text) an object.
  struct Node {
    std::string text;
    std::vector<std::pair<std::string, Node>> members;
  };

 private:
  void AddGate(const std::string& name, const std::string& value,
               const std::string& op, const std::string& bound, bool pass,
               const std::string& skip_reason);

  std::string bench_;
  std::string out_path_;
  Node values_;
  Node gates_;
  std::vector<std::string> failures_;
};

}  // namespace bench
}  // namespace hetps

#endif  // HETPS_BENCH_BENCH_COMMON_H_
