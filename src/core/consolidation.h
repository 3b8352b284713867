#ifndef HETPS_CORE_CONSOLIDATION_H_
#define HETPS_CORE_CONSOLIDATION_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/param_block.h"
#include "math/sparse_vector.h"
#include "util/status.h"

namespace hetps {

/// Strategy that decides how a worker's local update is folded into the
/// global parameter — the single point where SSPSGD, CONSGD and DYNSGD
/// differ (§4: "we only need to change a single line").
///
/// One instance exists per server partition; push/pull callbacks arrive in
/// the partition's serialization order. Indices in `update` are
/// block-local.
class ConsolidationRule {
 public:
  virtual ~ConsolidationRule() = default;

  /// Re-initializes internal state for a block of `dim` parameters shared
  /// by `num_workers` workers. Must be called before the first push.
  virtual void Reset(size_t dim, int num_workers) = 0;

  /// Consolidates the update `worker` pushed for clock `clock` into `w`.
  virtual void OnPush(int worker, int clock, const SparseVector& update,
                      ParamBlock* w) = 0;

  /// Called when `worker` pulls; `cmax` is the fastest worker's clock
  /// (Algorithm 2 line 18 stamps V(m) <- cmax).
  virtual void OnPull(int worker, int cmax);

  /// Dense snapshot of the current global parameter. Rules that defer
  /// applying updates (DynSGD's partition-sync mode) add their active
  /// versions here.
  virtual std::vector<double> Materialize(const ParamBlock& w) const;

  /// Snapshot as of `version` — only versions < `version` contribute.
  /// Rules without multi-version state return Materialize(w).
  virtual std::vector<double> MaterializeAtVersion(const ParamBlock& w,
                                                   int64_t version) const;

  /// out[i] = Materialize(w)[indices[i]] for sorted keys in [0, dim),
  /// without densifying the block (a zero may differ in sign only).
  virtual void GatherMaterialized(const ParamBlock& w,
                                  const int64_t* indices, size_t n,
                                  double* out) const;

  /// Nonzeros of Materialize(w) at sorted keys in [0, dim) that cover
  /// every nonzero of the read (a shard's support set). Rules whose read
  /// is w itself count w's nonzeros there without gathering.
  virtual size_t CountNonZeroMaterializedAt(const ParamBlock& w,
                                            const int64_t* indices,
                                            size_t n) const;

  /// Appends the keys the rule's own state can still write into w or a
  /// read on a later push (DynSGD: each live version summary's keys).
  /// Checkpoint restore rebuilds a shard's support set from these plus
  /// the restored parameter's nonzeros. Single-version rules add none.
  virtual void AppendStateKeys(std::vector<int64_t>* keys) const;

  /// Number of global-update versions this partition has created. 0 for
  /// single-version rules.
  virtual int64_t CurrentVersion() const { return 0; }

  /// Number of leading versions that are *complete* (every worker's
  /// update has arrived). This is what a partition reports to the master
  /// for the stable-version protocol (§6): versions below the stable
  /// count have final, time-invariant content on every partition, so a
  /// pull at the stable version is a consistent snapshot.
  virtual int64_t CompletedVersionCount() const { return 0; }

  /// Bytes of auxiliary state beyond the parameter itself (V, S and the
  /// multi-version updates) — the overhead Figure 13 measures.
  virtual size_t AuxMemoryBytes() const { return 0; }

  /// Mean staleness observed across consolidated pushes — μ in Theorem 2.
  /// Rules without staleness bookkeeping report 1 (every update fresh).
  virtual double ObservedMeanStaleness() const { return 1.0; }

  /// Number of live (not yet evicted) update versions — the quantity
  /// Theorem 3 bounds by cmax - cmin + 1. 0 for single-version rules.
  virtual size_t LiveVersionCount() const { return 0; }

  /// True if OnPush mutates `w` only at the indices present in `update`
  /// (pure accumulate rules: w += f(u)). The server shard then captures
  /// the exact applied delta by diffing the touched entries around the
  /// push — O(nnz) — and can serve version-aware *delta pulls* (ship only
  /// what changed since the version a client cached). Rules whose push
  /// may rewrite entries outside the update's support (DynSGD's Δu
  /// revision touches the version summary's support) must return false;
  /// their changed partitions ship whole (dense or sparse, 50% rule).
  virtual bool PushTouchesOnlyUpdateSupport() const { return false; }

  /// True if MaterializeAtVersion(w, v) is (a) genuinely limited to
  /// versions < v and (b) time-invariant once v is stable (complete on
  /// every partition). Version-synchronized pulls (§6) may then use the
  /// stable version itself as the client-cache content tag. Rules that
  /// fall back to the live value must return false, otherwise a constant
  /// stable version would produce false cache hits on changing content.
  virtual bool SupportsVersionedSnapshots() const { return false; }

  /// True if consolidating an empty update changes no rule state. The
  /// PS facade then skips empty partition pieces entirely — pieces
  /// emptied by the client-side update filter (§5.3) otherwise inflate
  /// push_count and generate pointless shard-lock traffic. Version-
  /// tracking rules (DynSGD) must return false: to them an empty piece
  /// is still the "worker m finished clock c here" marker that the
  /// stable-version completion bookkeeping (§6) counts.
  virtual bool EmptyPushIsNoOp() const { return false; }

  /// Fresh instance with the same configuration (each partition clones the
  /// prototype rule).
  virtual std::unique_ptr<ConsolidationRule> Clone() const = 0;

  /// Checkpointing hooks (the prototype's failure-recovery mechanism,
  /// Appendix D): serialize/restore the rule's mutable state. The rule's
  /// *configuration* is not serialized — restore into an instance built
  /// with the same options and Reset() with the same shape.
  virtual Status SaveState(std::ostream& os) const;
  virtual Status LoadState(std::istream& is);

  virtual std::string name() const = 0;
};

/// SSPSGD (Algorithm 1 / [Ho et al. '13]): w <- w + u. The baseline
/// accumulate rule used by Bösen/Petuum-style systems.
class SspRule final : public ConsolidationRule {
 public:
  void Reset(size_t dim, int num_workers) override;
  void OnPush(int worker, int clock, const SparseVector& update,
              ParamBlock* w) override;
  bool EmptyPushIsNoOp() const override { return true; }
  bool PushTouchesOnlyUpdateSupport() const override { return true; }
  std::unique_ptr<ConsolidationRule> Clone() const override;
  std::string name() const override { return "SspSGD"; }
};

/// CONSGD (§4): w <- w + λg · u with a constant global learning rate
/// λg ∈ (0, 1). The hyperparameter-free heuristic λg = 1/M is the default.
class ConRule final : public ConsolidationRule {
 public:
  /// Uses the 1/M heuristic (λg set at Reset time).
  ConRule() = default;
  /// Uses an explicit λg (the grid-searched variant of Table 4).
  explicit ConRule(double lambda_g);

  void Reset(size_t dim, int num_workers) override;
  void OnPush(int worker, int clock, const SparseVector& update,
              ParamBlock* w) override;
  bool EmptyPushIsNoOp() const override { return true; }
  bool PushTouchesOnlyUpdateSupport() const override { return true; }
  std::unique_ptr<ConsolidationRule> Clone() const override;
  std::string name() const override { return "ConSGD"; }

  double lambda_g() const { return lambda_g_; }

 private:
  bool use_inverse_m_ = true;
  double lambda_g_ = 1.0;
};

/// The names MakeConsolidationRule accepts.
const std::vector<std::string>& RuleNames();

/// Factory by name, one of RuleNames(); aborts on any other (DynSgdRule
/// lives in core/dyn_sgd.h).
std::unique_ptr<ConsolidationRule> MakeConsolidationRule(
    const std::string& name);

}  // namespace hetps

#endif  // HETPS_CORE_CONSOLIDATION_H_
