#ifndef HETPS_PS_SERVER_SHARD_H_
#define HETPS_PS_SERVER_SHARD_H_

#include <cstdint>
#include <deque>
#include <istream>
#include <memory>
#include <vector>

#include "core/consolidation.h"
#include "core/param_block.h"
#include "math/sparse_vector.h"
#include "util/status.h"

namespace hetps {

/// One partition's server-side state: the parameter block plus a private
/// clone of the consolidation rule. Pure logic — serialization of calls is
/// the caller's job (the facade locks per shard; the simulator is
/// single-threaded).
///
/// ## Version stamps & the delta log (version-aware pull path, §6)
///
/// Every push bumps a monotone `data_version()` stamp. The materialized
/// content of a shard is a pure function of the pushes applied, so two
/// reads at the same data version are guaranteed byte-identical — that is
/// what lets a client cache a partition replica keyed by version and skip
/// re-fetching unchanged partitions.
///
/// For accumulate rules (rule().PushTouchesOnlyUpdateSupport()), the shard
/// additionally keeps a bounded log of the *applied* per-push deltas
/// (captured by diffing the touched entries around OnPush, O(nnz) extra).
/// DeltaSince() merges the log into one sparse delta covering
/// (from_version, data_version], so a pull can ship just the arithmetic
/// difference instead of the whole block when that is smaller.
///
/// ## Support set (O(written keys) whole-block ships)
///
/// The shard also keeps the sorted, monotone set of keys its pushes have
/// written. Every rule's reads are linear combinations of pushed updates
/// (DynSGD's version summaries included), so each read's nonzeros lie in
/// that set. Wire sizing counts nonzeros there, and a live read whose
/// support is under half the block ships sparse, gathered at the support
/// without materializing the dense block.
class ServerShard {
 public:
  /// `rule_proto` is cloned; `dim` is the partition-local dimension.
  ServerShard(int shard_id, size_t dim, const ConsolidationRule& rule_proto,
              int num_workers);

  int shard_id() const { return shard_id_; }
  size_t dim() const { return param_.dim(); }

  /// Consolidates a partition-local update from `worker` at `clock`.
  /// Bumps data_version() and (for accumulate rules) appends the applied
  /// delta to the log.
  void Push(int worker, int clock, const SparseVector& local_update);

  /// Dense snapshot of this partition, stamping the rule's pull state for
  /// `worker` (`cmax` = fastest worker's clock, for Algorithm 2).
  std::vector<double> Pull(int worker, int cmax);

  /// Snapshot at `version` (deferred DynSGD only; other rules return the
  /// live value). Stamps pull state like Pull().
  std::vector<double> PullAtVersion(int worker, int cmax, int64_t version);

  /// Whole-block read for a pull response (`version` < 0 = live read, as
  /// Pull(); otherwise as PullAtVersion()). Returns true and fills
  /// `*sparse` when the ParamBlock 50% rule picks the sparse layout for
  /// the read's content, else fills `*dense`. A live read whose support
  /// set is under half the block must ship sparse, so it is gathered at
  /// the support; dense ships and versioned deferred-DynSGD reads
  /// materialize the block.
  bool PullBlock(int worker, int cmax, int64_t version,
                 std::vector<double>* dense, SparseVector* sparse);

  /// Stamps the rule's pull state without materializing — the cheap half
  /// of a cache-hit pull (the client keeps its replica; the server must
  /// still record that the worker read at cmax, Algorithm 2 line 18).
  void StampPull(int worker, int cmax) { rule_->OnPull(worker, cmax); }

  /// Read-only snapshot without stamping pull state (evaluation path).
  std::vector<double> Peek() const;

  /// Monotone content stamp: number of pushes consolidated into this
  /// shard. Equal stamps imply byte-identical materialized content.
  int64_t data_version() const { return data_version_; }

  /// Checkpoint restore into a freshly built shard: installs the saved
  /// parameter nonzeros in the saved layout, the push count (which also
  /// seeds data_version; the facade's pull epoch keeps it from aliasing a
  /// pre-restore tag) and the rule state read from `rule_state`. The
  /// support set is rebuilt from the restored nonzeros plus every key the
  /// rule's state can still write: a version-summary key whose restored
  /// parameter value is exactly 0 is written by the next push.
  Status Restore(const SparseVector& param, bool sparse_layout,
                 int64_t push_count, std::istream& rule_state);

  /// Sorted keys written by any push so far (monotone).
  const std::vector<int64_t>& support() const { return support_; }

  /// Merges the logged deltas covering (from_version, data_version()]
  /// into `*out` (entries sorted, zero-sum entries retained — they are
  /// real writes). Returns false when the log does not reach back to
  /// `from_version` (evicted, disabled, or rule not delta-capable); the
  /// caller must ship the whole block instead.
  bool DeltaSince(int64_t from_version, SparseVector* out) const;

  /// Content bytes of a live whole-block ship under the ParamBlock 50%
  /// rule: min(dense 8 B/key, sparse 16 B/nonzero), the read's nonzeros
  /// counted at the support set through the rule (deferred DynSGD's read
  /// adds its active version summaries to w). The pull.* accounting's
  /// cache-less baseline, and the simulator's whole-block charge.
  int64_t WirePayloadBytes() const;

  /// Versions created on this partition.
  int64_t CurrentVersion() const { return rule_->CurrentVersion(); }

  /// Complete-version count this partition reports to the master (§6).
  int64_t CompletedVersionCount() const {
    return rule_->CompletedVersionCount();
  }

  /// Bytes held by the parameter block itself.
  size_t ParamMemoryBytes() const { return param_.MemoryBytes(); }

  /// Bytes of consolidation-rule auxiliary state (multi-version updates
  /// plus the delta log).
  size_t AuxMemoryBytes() const {
    return rule_->AuxMemoryBytes() + delta_log_bytes_;
  }

  /// Number of pushes consolidated so far.
  int64_t push_count() const { return push_count_; }

  const ParamBlock& param() const { return param_; }
  const ConsolidationRule& rule() const { return *rule_; }

 private:
  struct LoggedDelta {
    int64_t version;     // data_version_ after this push was applied
    SparseVector delta;  // exact entry-wise change of the block
  };

  void AppendDelta(SparseVector delta);

  /// Adds the update's keys to the support set: O(nnz) membership bits,
  /// plus one merge when the update brings keys never written before.
  void GrowSupport(const SparseVector& update);

  int shard_id_;
  ParamBlock param_;
  std::unique_ptr<ConsolidationRule> rule_;
  int64_t push_count_ = 0;
  int64_t data_version_ = 0;

  // Support set: sorted written keys, and one membership bit per key.
  std::vector<int64_t> support_;
  std::vector<bool> in_support_;

  // Delta log (newest at the back). Kept only when the rule's pushes are
  // support-local; bounded by depth (64 deltas) and by bytes (once the
  // log outweighs a dense ship of the block it can no longer win).
  bool track_deltas_ = false;
  size_t delta_log_bytes_ = 0;
  std::deque<LoggedDelta> delta_log_;

  // Reusable before-snapshot buffer for delta capture in Push() — sized
  // to the largest update seen, so steady-state pushes allocate only the
  // logged delta itself.
  std::vector<double> delta_scratch_;
};

}  // namespace hetps

#endif  // HETPS_PS_SERVER_SHARD_H_
