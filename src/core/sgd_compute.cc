#include "core/sgd_compute.h"

#include <algorithm>
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
  batch_stamp_.assign(dim_, 0);
  clock_stamp_.assign(dim_, 0);
  occ_.assign(dim_, 0);
  batch_epoch_ = 0;
  clock_epoch_ = 0;
}

void LocalWorkerSgd::BumpEpoch(uint32_t* epoch,
                               std::vector<uint32_t>* stamps) {
  if (*epoch == std::numeric_limits<uint32_t>::max()) {
    std::fill(stamps->begin(), stamps->end(), 0);
    *epoch = 0;
  }
  ++*epoch;
}

LocalWorkerSgd::ClockStats LocalWorkerSgd::RunClock(
    int clock, std::vector<double>* replica, SparseVector* update) {
  HETPS_CHECK(replica->size() == dim_) << "replica dimension mismatch";
  EnsureBuffers();
  const double eta = schedule_->Rate(clock);
  const double l2 = options_.l2;
  ClockStats stats;
  double loss_sum = 0.0;

  double* const rep = replica->data();
  double* const grad = batch_grad_.data();
  double* const upd = update_buffer_.data();
  uint32_t* const bstamp = batch_stamp_.data();
  uint32_t* const cstamp = clock_stamp_.data();
  uint32_t* const occ = occ_.data();

  BumpEpoch(&clock_epoch_, &clock_stamp_);
  clock_touched_.clear();

  const auto& indices = shard_.example_indices;
  size_t pos = 0;
  while (pos < indices.size()) {
    const size_t batch_end =
        std::min(pos + options_.batch_size, indices.size());
    const size_t b = batch_end - pos;
    const double inv_b = 1.0 / static_cast<double>(b);
    BumpEpoch(&batch_epoch_, &batch_stamp_);
    const uint32_t be = batch_epoch_;
    batch_touched_.clear();

    // Gather leg: one gather-dot per example for the margin, then a
    // fused scatter that accumulates the scaled gradient and records
    // batch first-touches + occurrence counts in one pass over the
    // example's support. (Occurrences are counted even when the margin
    // gradient is zero: lazy L2 decays every active coordinate.)
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
          if (bstamp[j] != be) {
            bstamp[j] = be;
            occ[j] = 1;
            batch_touched_.push_back(idx[i]);
          } else {
            ++occ[j];
          }
          grad[j] += s * val[i];
        }
      } else {
        for (size_t i = 0; i < nnz; ++i) {
          const size_t j = static_cast<size_t>(idx[i]);
          if (bstamp[j] != be) {
            bstamp[j] = be;
            occ[j] = 1;
            batch_touched_.push_back(idx[i]);
          } else {
            ++occ[j];
          }
        }
      }
      loss_sum += loss_->Loss(margin, ex.label);
      stats.nnz_processed += nnz;
    }
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
    const uint32_t ce = clock_epoch_;
    for (const int64_t tj : batch_touched_) {
      const size_t j = static_cast<size_t>(tj);
      const double c = l2 * rep[j] * inv_b;
      for (uint32_t t = occ[j]; t > 0; --t) grad[j] += c;
      const double g = grad[j];
      if (g != 0.0) {
        rep[j] -= eta * g;
        upd[j] -= eta * g;
        grad[j] = 0.0;  // keep the all-zero between-batches invariant
        ++stats.buffer_reset_writes;
        if (cstamp[j] != ce) {
          cstamp[j] = ce;
          clock_touched_.push_back(tj);
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
  // way out — O(t log t) for t touched coordinates, replacing the old
  // O(dim) FromDense scan + O(dim) fill.
  std::sort(clock_touched_.begin(), clock_touched_.end());
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

  stats.mean_loss = stats.examples_processed
                        ? loss_sum /
                              static_cast<double>(stats.examples_processed)
                        : 0.0;
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
