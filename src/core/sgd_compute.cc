#include "core/sgd_compute.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>

#include "math/kernels.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace hetps {
namespace {

using SteadyClock = std::chrono::steady_clock;

int64_t MicrosSince(SteadyClock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             SteadyClock::now() - start)
      .count();
}

// Radix-sort digits are at most this wide: 2^11 counters fit in L1, and
// two passes cover every key of a model up to 4M coordinates.
constexpr int kMaxRadixBits = 11;

// One stable counting-sort pass of `in` into `out` on the digit
// (key >> shift) & mask.
template <typename Src, typename Dst>
void RadixPass(const Src* in, size_t n, int shift, uint64_t mask,
               Dst* out) {
  size_t count[(size_t{1} << kMaxRadixBits) + 1];
  std::fill(count, count + mask + 2, size_t{0});
  for (size_t i = 0; i < n; ++i) {
    ++count[((static_cast<uint64_t>(in[i]) >> shift) & mask) + 1];
  }
  for (size_t d = 1; d <= mask; ++d) count[d] += count[d - 1];
  for (size_t i = 0; i < n; ++i) {
    out[count[(static_cast<uint64_t>(in[i]) >> shift) & mask]++] =
        static_cast<Dst>(in[i]);
  }
}

// LSD radix sort of distinct keys in [0, dim), dim <= 2^32: as many
// passes as dim's bit width needs at kMaxRadixBits per digit, the bits
// split evenly between them. Linear in the keys, never O(dim). The
// passes alternate through the 32-bit `scratch` and end in `keys`.
void RadixSortKeys(size_t dim, std::vector<int64_t>* keys,
                   std::vector<uint32_t>* scratch) {
  const size_t n = keys->size();
  if (n < 2) return;
  const int bits = static_cast<int>(std::bit_width(uint64_t{dim - 1}));
  const int passes = (bits + kMaxRadixBits - 1) / kMaxRadixBits;
  const int width = (bits + passes - 1) / passes;
  const uint64_t mask = (uint64_t{1} << width) - 1;
  if (scratch->size() < n) scratch->resize(n);
  int64_t* const k = keys->data();
  uint32_t* const s = scratch->data();
  int p = 0;
  if (passes % 2 == 1) {
    std::copy(k, k + n, s);
    RadixPass(s, n, 0, mask, k);
    p = 1;
  }
  for (; p < passes; p += 2) {
    RadixPass(k, n, p * width, mask, s);
    RadixPass(s, n, (p + 1) * width, mask, k);
  }
}

}  // namespace

LocalWorkerSgd::LocalWorkerSgd(const Dataset* dataset, DataShard shard,
                               const LossFunction* loss,
                               const LearningRateSchedule* schedule,
                               Options options)
    : dataset_(dataset),
      shard_(std::move(shard)),
      loss_(loss),
      schedule_(schedule),
      options_(options) {
  HETPS_CHECK(dataset != nullptr) << "null dataset";
  HETPS_CHECK(loss != nullptr) << "null loss";
  HETPS_CHECK(schedule != nullptr) << "null learning-rate schedule";
  HETPS_CHECK(options_.batch_size > 0) << "batch_size must be positive";
  dim_ = static_cast<size_t>(dataset->dimension());
  HETPS_CHECK(dim_ <= (size_t{1} << 32))
      << "model dimension exceeds 32-bit touched-list keys";
  // Buffers are allocated lazily in EnsureBuffers(): constructing a
  // worker (FlexRR builds many) no longer zero-fills 2x dim doubles.
  MetricsRegistry& metrics = GlobalMetrics();
  metrics
      .gauge("compute.kernel_isa",
             {{"isa",
               kernels::KernelIsaName(kernels::ActiveKernelIsa())}})
      ->Set(1.0);
  gather_us_ = metrics.histogram("compute.gather_us");
  scatter_us_ = metrics.histogram("compute.scatter_us");
}

void LocalWorkerSgd::EnsureBuffers() {
  if (update_buffer_.size() == dim_) return;
  update_buffer_.assign(dim_, 0.0);
  batch_grad_.assign(dim_, 0.0);
  clock_stamp_.assign(dim_, 0);
  occ_.assign(dim_, 0);
  clock_epoch_ = 0;
}

LocalWorkerSgd::ClockStats LocalWorkerSgd::RunClock(
    int clock, std::vector<double>* replica, SparseVector* update) {
  HETPS_CHECK(replica->size() == dim_) << "replica dimension mismatch";
  EnsureBuffers();
  const double eta = schedule_->Rate(clock);
  const double l2 = options_.l2;
  ClockStats stats;

  double* const rep = replica->data();
  double* const grad = batch_grad_.data();
  double* const upd = update_buffer_.data();
  uint32_t* const cstamp = clock_stamp_.data();
  uint32_t* const occ = occ_.data();

  // Clock membership is epoch-stamped; the (effectively unreachable)
  // uint32 wraparound re-clears the stamps.
  if (clock_epoch_ == std::numeric_limits<uint32_t>::max()) {
    std::fill(clock_stamp_.begin(), clock_stamp_.end(), 0);
    clock_epoch_ = 0;
  }
  const uint32_t ce = ++clock_epoch_;
  clock_touched_.clear();

  const auto& indices = shard_.example_indices;
  size_t pos = 0;
  while (pos < indices.size()) {
    const size_t batch_end =
        std::min(pos + options_.batch_size, indices.size());
    const size_t b = batch_end - pos;
    const double inv_b = 1.0 / static_cast<double>(b);

    // The batch's touched list never holds more than min(batch nnz, dim)
    // coordinates; one more slot takes the branch-free append's write
    // past the last kept entry.
    size_t batch_nnz = 0;
    for (size_t k = pos; k < batch_end; ++k) {
      batch_nnz += dataset_->example(indices[k]).features.nnz();
    }
    const size_t slots = std::min(batch_nnz, dim_) + 1;
    if (batch_touched_.size() < slots) batch_touched_.resize(slots);
    uint32_t* const bt = batch_touched_.data();
    size_t n = 0;

    // Gather leg: one gather-dot per example for the margin, then a
    // fused scatter that accumulates the scaled gradient and counts
    // occurrences in one pass over the example's support. occ[j] == 0
    // marks a batch first-touch (the scatter leg re-zeroes every count
    // it reads), and the append writes unconditionally and only keeps
    // the slot on a first touch. Occurrences are counted even when the
    // margin gradient is zero: lazy L2 decays every active coordinate.
    const SteadyClock::time_point gather_start = SteadyClock::now();
    for (size_t k = pos; k < batch_end; ++k) {
      const Example& ex = dataset_->example(indices[k]);
      const size_t nnz = ex.features.nnz();
      const int64_t* const idx = ex.features.indices().data();
      const double* const val = ex.features.values().data();
      HETPS_DCHECK(nnz == 0 || (idx[0] >= 0 &&
                                idx[nnz - 1] <
                                    static_cast<int64_t>(dim_)))
          << "feature index out of model range";
      const double margin = kernels::GatherDot(idx, val, nnz, rep);
      const double g = loss_->MarginGradient(margin, ex.label);
      const double s = inv_b * g;
      if (g != 0.0) {
        for (size_t i = 0; i < nnz; ++i) {
          const size_t j = static_cast<size_t>(idx[i]);
          bt[n] = static_cast<uint32_t>(j);
          n += occ[j] == 0;
          ++occ[j];
          grad[j] += s * val[i];
        }
      } else {
        for (size_t i = 0; i < nnz; ++i) {
          const size_t j = static_cast<size_t>(idx[i]);
          bt[n] = static_cast<uint32_t>(j);
          n += occ[j] == 0;
          ++occ[j];
        }
      }
    }
    stats.nnz_processed += batch_nnz;
    if (gather_us_ != nullptr) {
      gather_us_->RecordInt(MicrosSince(gather_start));
    }

    // Scatter leg: lazy L2 + apply, walking only the batch's touched
    // list — O(batch nnz), independent of the model dimension. Per
    // coordinate the floating-point op sequence matches the historical
    // three-pass implementation exactly (one L2 term per occurrence,
    // then a single consume-once application), so scalar-forced runs
    // reproduce the pre-kernel trainer bitwise.
    const SteadyClock::time_point scatter_start = SteadyClock::now();
    for (size_t t = 0; t < n; ++t) {
      const size_t j = static_cast<size_t>(bt[t]);
      const double c = l2 * rep[j] * inv_b;
      for (uint32_t r = occ[j]; r > 0; --r) grad[j] += c;
      occ[j] = 0;
      const double g = grad[j];
      if (g != 0.0) {
        rep[j] -= eta * g;
        upd[j] -= eta * g;
        grad[j] = 0.0;  // keep the all-zero between-batches invariant
        ++stats.buffer_reset_writes;
        if (cstamp[j] != ce) {
          cstamp[j] = ce;
          clock_touched_.push_back(static_cast<int64_t>(j));
        }
      }
    }
    if (scatter_us_ != nullptr) {
      scatter_us_->RecordInt(MicrosSince(scatter_start));
    }

    stats.examples_processed += b;
    ++stats.batches;
    pos = batch_end;
  }

  // Emit the clock's update straight from the touched list (sorted so
  // the SparseVector invariant holds) and reset update_buffer_ on the
  // way out — linear in the t touched coordinates, replacing the old
  // O(dim) FromDense scan + O(dim) fill. The batch list is free once
  // the last batch is applied, so it lends the sort its scratch.
  RadixSortKeys(dim_, &clock_touched_, &batch_touched_);
  std::vector<int64_t> out_idx;
  std::vector<double> out_val;
  out_idx.reserve(clock_touched_.size());
  out_val.reserve(clock_touched_.size());
  for (const int64_t tj : clock_touched_) {
    const size_t j = static_cast<size_t>(tj);
    const double v = upd[j];
    if (std::fabs(v) > 0.0) {  // match FromDense(·, 0.0) filtering
      out_idx.push_back(tj);
      out_val.push_back(v);
    }
    upd[j] = 0.0;
    ++stats.buffer_reset_writes;
  }
  stats.coords_touched = clock_touched_.size();
  *update = SparseVector(std::move(out_idx), std::move(out_val));
  return stats;
}

size_t LocalWorkerSgd::ShardNnz() const {
  size_t total = 0;
  for (size_t idx : shard_.example_indices) {
    total += dataset_->example(idx).features.nnz();
  }
  return total;
}

LocalWorkerSgd::ClockCost LocalWorkerSgd::NextClockCost() const {
  const size_t n = shard_.example_indices.size();
  return {ShardNnz(), (n + options_.batch_size - 1) / options_.batch_size};
}

size_t LocalWorkerSgd::BatchSizeForFraction(size_t shard_size,
                                            double fraction) {
  HETPS_CHECK(fraction > 0.0 && fraction <= 1.0)
      << "batch fraction out of (0, 1]";
  const size_t b = static_cast<size_t>(
      fraction * static_cast<double>(shard_size));
  return std::max<size_t>(1, b);
}

}  // namespace hetps
