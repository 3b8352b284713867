#ifndef HETPS_CORE_DYN_SGD_H_
#define HETPS_CORE_DYN_SGD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/consolidation.h"

namespace hetps {

/// DYNSGD (§5, Algorithm 2): a dynamic learning-rate schedule
/// λ(i) = 1 / staleness(u_i), where staleness counts the local updates
/// computed from the same parameter materialization ("version").
///
/// Implementation follows the paper's multi-version data structure:
///   - u(PS, v): the running, already-weighted summary of all updates
///     stamped with version v (ParamBlock, sparse layout by default);
///   - S(v): staleness counter, initialized to 1 at version creation;
///   - V(m): the version the next push of worker m is stamped with;
///     set to cmax on every pull (Algorithm 2 line 18).
///
/// A push of update u with version v and d = S(v) applies
///   Δu = (u − u(PS, v)) / d
/// to both the global parameter and u(PS, v), which *revises* the weight
/// of all previous same-version updates from 1/(d−1) to 1/d backward.
/// When every worker has moved past v the version is evicted
/// (Algorithm 2 lines 10-11), bounding memory by Theorem 3.
///
/// Two application modes:
///   - kImmediate: Δu is applied to w at push time (Algorithm 2 verbatim);
///   - kDeferred:  u(PS, v) is only folded into w when v expires, and
///     reads return w + Σ active u(PS, v) — the variant §6 introduces to
///     support version-based partition synchronization.
class DynSgdRule final : public ConsolidationRule {
 public:
  enum class ApplyMode { kImmediate, kDeferred };

  /// How pushes are mapped to versions (fclock in the abstract model).
  enum class VersionMode {
    /// A push is stamped with the worker's clock index: all updates of
    /// clock c share version c. This realizes the paper's staleness
    /// definition ("the number of updates that rely on the same model
    /// replica" vintage) exactly, makes the live-version window equal
    /// cmax-cmin+1 (Theorem 3), and keeps versions aligned when worker
    /// speeds drift. Default.
    kClockAligned,
    /// Algorithm 2 verbatim: V(m) increments per push and is reset to the
    /// version count on every pull (Appendix C's example). Under throttled
    /// pulls and speed drift this fragments versions (small staleness), so
    /// it is kept for fidelity tests and ablation rather than as default.
    kAlgorithm2,
  };

  struct Options {
    ApplyMode mode = ApplyMode::kImmediate;
    VersionMode version_mode = VersionMode::kClockAligned;
    /// Drop |x| <= epsilon entries when summarizing versions (§5.3
    /// "filter extraordinarily small figures"); 0 disables.
    double filter_epsilon = 0.0;
    /// Re-evaluate the 50% dense/sparse layout rule for a version's
    /// summary every `compact_every` pushes; 0 disables.
    int compact_every = 8;
  };

  DynSgdRule() = default;
  explicit DynSgdRule(Options options);

  void Reset(size_t dim, int num_workers) override;
  void OnPush(int worker, int clock, const SparseVector& update,
              ParamBlock* w) override;
  void OnPull(int worker, int cmax) override;
  std::vector<double> Materialize(const ParamBlock& w) const override;
  std::vector<double> MaterializeAtVersion(const ParamBlock& w,
                                           int64_t version) const override;
  void GatherMaterialized(const ParamBlock& w, const int64_t* indices,
                          size_t n, double* out) const override;
  size_t CountNonZeroMaterializedAt(const ParamBlock& w,
                                    const int64_t* indices,
                                    size_t n) const override;
  void AppendStateKeys(std::vector<int64_t>* keys) const override;
  int64_t CurrentVersion() const override { return next_version_; }
  int64_t CompletedVersionCount() const override;
  size_t AuxMemoryBytes() const override;
  double ObservedMeanStaleness() const override;
  size_t LiveVersionCount() const override { return versions_.size(); }
  /// Deferred-mode reads are genuine multi-version snapshots (w + the
  /// summaries below the version limit) and are time-invariant at any
  /// stable version, so version-synchronized pulls can cache by stable
  /// version. Immediate mode falls back to the live value — no tag.
  bool SupportsVersionedSnapshots() const override {
    return options_.mode == ApplyMode::kDeferred;
  }
  std::unique_ptr<ConsolidationRule> Clone() const override;
  Status SaveState(std::ostream& os) const override;
  Status LoadState(std::istream& is) override;
  std::string name() const override { return "DynSGD"; }

  /// Staleness S(v) of an active version; 0 if evicted/unknown.
  /// (Counts pushes + 1, matching Algorithm 2's initialization S <- 1.)
  int StalenessOf(int64_t version) const;

  /// Number of live (not yet evicted) versions — cmax-cmin+1 in Theorem 3.
  size_t ActiveVersionCount() const { return versions_.size(); }

  /// Version the next push of `worker` will be stamped with.
  int64_t WorkerVersion(int worker) const;

  const Options& options() const { return options_; }

 private:
  struct VersionEntry {
    explicit VersionEntry(size_t dim)
        : summary(dim, ParamBlock::Layout::kSparse), staleness(1) {}
    ParamBlock summary;  // u(PS, v)
    int staleness;       // S(v)
    int pushes_since_compact = 0;
  };

  void MaybeEvict(ParamBlock* w);

  Options options_;
  size_t dim_ = 0;
  std::map<int64_t, VersionEntry> versions_;  // ordered by version
  std::vector<int64_t> worker_version_;       // V(m)
  int64_t next_version_ = 0;                  // == cmax in version units
  // Observed-μ accounting (Theorem 2).
  double staleness_sum_ = 0.0;
  int64_t staleness_count_ = 0;
};

}  // namespace hetps

#endif  // HETPS_CORE_DYN_SGD_H_
