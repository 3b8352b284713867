#ifndef HETPS_CORE_SGD_COMPUTE_H_
#define HETPS_CORE_SGD_COMPUTE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/learning_rate.h"
#include "data/dataset.h"
#include "data/sharding.h"
#include "math/kernels.h"
#include "math/loss.h"
#include "math/sparse_vector.h"

namespace hetps {

class BucketedHistogram;

/// Worker-side mini-batch SGD for one clock (Algorithm 1 lines 3-6):
/// scans the worker's shard once, updating the local replica after every
/// mini-batch and accumulating the clock's total update
///   u = -η_c Σ_batches ∇f_batch(replica).
///
/// One instance per worker; owns no data (the dataset is shared
/// read-only). L2 regularization is applied lazily on the coordinates
/// active in each batch, which keeps updates sparse.
///
/// Hot-path structure (DESIGN.md §9): per example one gather-dot for the
/// margin and one fused scatter that accumulates the gradient while
/// recording first-touches in a *touched-coordinate list*. Batch-local
/// L2, the replica/update application, scratch-buffer resets and the
/// end-of-clock sparse emission (a radix sort of the clock's touched
/// keys) all walk that list, so per-clock work is O(shard nnz), never
/// O(model dimension). The dense scratch buffers are allocated once
/// (lazily, 64-byte aligned) and kept all-zero between clocks via
/// touched-list resets.
class LocalWorkerSgd {
 public:
  struct Options {
    /// Mini-batch size in examples. The paper uses 10% of the shard; use
    /// BatchSizeForFraction to derive it.
    size_t batch_size = 16;
    double l2 = 1e-4;
  };

  struct ClockStats {
    size_t examples_processed = 0;
    size_t batches = 0;
    /// Sum of nnz over processed examples — the simulator's compute-cost
    /// unit.
    size_t nnz_processed = 0;
    /// Unique coordinates the clock's update touched (the update's nnz
    /// before zero-cancellation filtering).
    size_t coords_touched = 0;
    /// Dense scratch-buffer writes spent on resets this clock. With the
    /// touched-list scheme this is O(coords_touched); the pre-kernel
    /// implementation paid O(dimension) per batch. Tested in
    /// tests/core/sgd_compute_test.cc (work must not scale with dim).
    size_t buffer_reset_writes = 0;
  };

  LocalWorkerSgd(const Dataset* dataset, DataShard shard,
                 const LossFunction* loss,
                 const LearningRateSchedule* schedule, Options options);

  /// Runs one clock: updates `replica` in place, writes the accumulated
  /// update into `update`. `clock` selects η_c.
  ClockStats RunClock(int clock, std::vector<double>* replica,
                      SparseVector* update);

  /// The keys the last RunClock wrote into the replica, sorted. A
  /// superset of its update's indices: the update leaves out keys whose
  /// clock sum cancelled to exactly 0, but the replica was written there.
  const std::vector<int64_t>& written_keys() const { return clock_touched_; }

  /// Sum of feature nnz over the current shard (compute cost of a clock).
  size_t ShardNnz() const;

  /// The cost the next RunClock's ClockStats will report, known before
  /// its gradients: every clock is one pass over the shard, ShardNnz()
  /// nonzeros in ⌈n/b⌉ batches. The simulator charges a clock's
  /// simulated time from it while the gradients compute elsewhere.
  struct ClockCost {
    size_t nnz_processed = 0;
    size_t batches = 0;
  };
  ClockCost NextClockCost() const;

  const DataShard& shard() const { return shard_; }
  DataShard* mutable_shard() { return &shard_; }
  const Options& options() const { return options_; }

  /// batch = max(1, fraction * shard_size) — "10% of the data" (§7.1).
  static size_t BatchSizeForFraction(size_t shard_size, double fraction);

 private:
  /// Lazily sizes the dense scratch, stamp and count arrays (one-time
  /// O(dim) allocation; per-clock work stays O(nnz)).
  void EnsureBuffers();

  const Dataset* dataset_;
  DataShard shard_;
  const LossFunction* loss_;
  const LearningRateSchedule* schedule_;
  Options options_;
  size_t dim_ = 0;

  // Dense scratch, 64-byte aligned for the vector kernels. Invariants:
  // batch_grad_ is all-zero between batches, update_buffer_ all-zero
  // between clocks — maintained by touched-list resets, never dense
  // fills.
  kernels::AlignedVector update_buffer_;
  kernels::AlignedVector batch_grad_;

  // Touched-coordinate tracking. Batch membership is the occurrence
  // count itself: occ_[j] != 0 iff coordinate j was already seen this
  // batch, and the scatter leg re-zeroes every count it reads, so occ_
  // is all-zero between batches. Clock membership is epoch-stamped:
  // clock_stamp_[j] == clock_epoch_ iff j was written this clock, O(1)
  // without per-clock clearing.
  std::vector<uint32_t> occ_;
  std::vector<uint32_t> clock_stamp_;
  uint32_t clock_epoch_ = 0;
  // First-occurrence order; sized by the largest batch's nonzeros plus
  // one slot for the branch-free append, never by the model dimension.
  // It also serves as the radix sort's scratch (one slot per touched
  // key of the clock). Keys are 32-bit (the constructor checks
  // dim <= 2^32), so it never outgrows one 32-bit stamp array.
  std::vector<uint32_t> batch_touched_;
  std::vector<int64_t> clock_touched_;

  // Obs plane (may be null when metrics are disabled in tests).
  BucketedHistogram* gather_us_ = nullptr;
  BucketedHistogram* scatter_us_ = nullptr;
};

}  // namespace hetps

#endif  // HETPS_CORE_SGD_COMPUTE_H_
