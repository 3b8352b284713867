#include "core/sgd_compute.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "data/sharding.h"
#include "data/synthetic.h"
#include "math/kernels.h"
#include "obs/metrics.h"

namespace hetps {
namespace {

Dataset SmallSet() {
  SyntheticConfig cfg;
  cfg.num_examples = 60;
  cfg.num_features = 40;
  cfg.avg_nnz = 6;
  cfg.label_noise = 0.0;
  cfg.seed = 9;
  return GenerateSynthetic(cfg);
}

DataShard FullShard(const Dataset& d) {
  DataShard shard;
  for (size_t i = 0; i < d.size(); ++i) shard.example_indices.push_back(i);
  return shard;
}

TEST(LocalWorkerSgdTest, RunClockScansWholeShardOnce) {
  Dataset d = SmallSet();
  LogisticLoss loss;
  FixedRate rate(0.1);
  LocalWorkerSgd::Options opts;
  opts.batch_size = 16;
  LocalWorkerSgd sgd(&d, FullShard(d), &loss, &rate, opts);
  std::vector<double> replica(static_cast<size_t>(d.dimension()), 0.0);
  SparseVector update;
  const auto stats = sgd.RunClock(0, &replica, &update);
  EXPECT_EQ(stats.examples_processed, d.size());
  EXPECT_EQ(stats.batches, (d.size() + 15) / 16);
  EXPECT_GT(stats.nnz_processed, 0u);
}

TEST(LocalWorkerSgdTest, UpdateEqualsReplicaDisplacement) {
  // Algorithm 1 lines 5-6: the pushed update is exactly the replica's
  // total movement during the clock.
  Dataset d = SmallSet();
  LogisticLoss loss;
  FixedRate rate(0.2);
  LocalWorkerSgd::Options opts;
  opts.batch_size = 8;
  LocalWorkerSgd sgd(&d, FullShard(d), &loss, &rate, opts);
  std::vector<double> replica(static_cast<size_t>(d.dimension()), 0.0);
  const std::vector<double> before = replica;
  SparseVector update;
  sgd.RunClock(0, &replica, &update);
  for (int64_t j = 0; j < d.dimension(); ++j) {
    EXPECT_NEAR(replica[static_cast<size_t>(j)] -
                    before[static_cast<size_t>(j)],
                update.ValueAt(j), 1e-12);
  }
}

TEST(LocalWorkerSgdTest, ObjectiveDecreasesOverClocks) {
  Dataset d = SmallSet();
  LogisticLoss loss;
  FixedRate rate(0.5);
  LocalWorkerSgd::Options opts;
  opts.batch_size = 10;
  opts.l2 = 1e-4;
  LocalWorkerSgd sgd(&d, FullShard(d), &loss, &rate, opts);
  std::vector<double> replica(static_cast<size_t>(d.dimension()), 0.0);
  const double initial = d.Objective(loss, replica, opts.l2);
  SparseVector update;
  for (int c = 0; c < 10; ++c) sgd.RunClock(c, &replica, &update);
  EXPECT_LT(d.Objective(loss, replica, opts.l2), 0.5 * initial);
}

TEST(LocalWorkerSgdTest, UsesScheduleRate) {
  Dataset d = SmallSet();
  LogisticLoss loss;
  // A rate so tiny the update must be tiny too.
  FixedRate rate(1e-9);
  LocalWorkerSgd::Options opts;
  opts.batch_size = 10;
  LocalWorkerSgd sgd(&d, FullShard(d), &loss, &rate, opts);
  std::vector<double> replica(static_cast<size_t>(d.dimension()), 0.0);
  SparseVector update;
  sgd.RunClock(0, &replica, &update);
  EXPECT_LT(std::sqrt(update.SquaredNorm()), 1e-6);
}

TEST(LocalWorkerSgdTest, EmptyShardYieldsEmptyUpdate) {
  Dataset d = SmallSet();
  LogisticLoss loss;
  FixedRate rate(0.1);
  LocalWorkerSgd sgd(&d, DataShard{}, &loss, &rate, {});
  std::vector<double> replica(static_cast<size_t>(d.dimension()), 0.0);
  SparseVector update;
  const auto stats = sgd.RunClock(0, &replica, &update);
  EXPECT_EQ(stats.examples_processed, 0u);
  EXPECT_TRUE(update.empty());
}

TEST(LocalWorkerSgdTest, ShardNnzSumsFeatureCounts) {
  Dataset d = SmallSet();
  LogisticLoss loss;
  FixedRate rate(0.1);
  LocalWorkerSgd sgd(&d, FullShard(d), &loss, &rate, {});
  size_t expected = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    expected += d.example(i).features.nnz();
  }
  EXPECT_EQ(sgd.ShardNnz(), expected);
}

DataShard PrefixShard(size_t n) {
  DataShard shard;
  for (size_t i = 0; i < n; ++i) shard.example_indices.push_back(i);
  return shard;
}

// NextClockCost must equal what RunClock then reports: the simulator
// charges a clock's time from it before the gradients exist.
void ExpectCostMatchesRunClock(LocalWorkerSgd* sgd, size_t dim) {
  const LocalWorkerSgd::ClockCost cost = sgd->NextClockCost();
  std::vector<double> replica(dim, 0.0);
  SparseVector update;
  const auto stats = sgd->RunClock(0, &replica, &update);
  EXPECT_EQ(cost.nnz_processed, stats.nnz_processed);
  EXPECT_EQ(cost.batches, stats.batches);
}

TEST(LocalWorkerSgdTest, NextClockCostMatchesRunClock) {
  const Dataset d = SmallSet();
  const size_t dim = static_cast<size_t>(d.dimension());
  LogisticLoss loss;
  FixedRate rate(0.1);
  LocalWorkerSgd::Options opts;
  opts.batch_size = 4;
  const size_t b = opts.batch_size;
  for (size_t n : {size_t{1}, b - 1, b, b + 1, 10 * b + 3}) {
    SCOPED_TRACE("shard of " + std::to_string(n));
    ASSERT_LE(n, d.size());
    LocalWorkerSgd sgd(&d, PrefixShard(n), &loss, &rate, opts);
    ExpectCostMatchesRunClock(&sgd, dim);
  }

  // Shards edited in place, the way rebalancing and failover move
  // examples between clocks.
  LocalWorkerSgd a(&d, PrefixShard(10 * b + 3), &loss, &rate, opts);
  LocalWorkerSgd r1(&d, PrefixShard(b + 1), &loss, &rate, opts);
  LocalWorkerSgd r2(&d, PrefixShard(b - 1), &loss, &rate, opts);
  ASSERT_EQ(ReassignTail(a.mutable_shard(), r1.mutable_shard(), 7), 7u);
  for (LocalWorkerSgd* sgd : {&a, &r1}) ExpectCostMatchesRunClock(sgd, dim);
  ASSERT_GT(ReassignAcross(a.mutable_shard(),
                           {r1.mutable_shard(), r2.mutable_shard()}),
            0u);
  EXPECT_EQ(a.NextClockCost().batches, 0u);
  for (LocalWorkerSgd* sgd : {&a, &r1, &r2}) {
    ExpectCostMatchesRunClock(sgd, dim);
  }
}

/// Line-for-line reimplementation of the pre-kernel RunClock (three
/// passes over each batch, dense O(dim) gradient/update fills, FromDense
/// emission). The touched-list rewrite promises the same per-coordinate
/// floating-point op sequence, so under a scalar-forced dispatch table
/// the two must agree *bitwise*; under AVX2 dispatch only the gather-dot
/// margins reassociate, so agreement is within 1e-9.
struct LegacyReferenceSgd {
  const Dataset* dataset;
  DataShard shard;
  const LossFunction* loss;
  const LearningRateSchedule* schedule;
  LocalWorkerSgd::Options options;
  std::vector<double> update_buffer;
  std::vector<double> batch_grad;

  LegacyReferenceSgd(const Dataset* d, DataShard s, const LossFunction* l,
                     const LearningRateSchedule* sch,
                     LocalWorkerSgd::Options o)
      : dataset(d), shard(std::move(s)), loss(l), schedule(sch),
        options(o) {
    const size_t dim = static_cast<size_t>(d->dimension());
    update_buffer.assign(dim, 0.0);
    batch_grad.assign(dim, 0.0);
  }

  void RunClock(int clock, std::vector<double>* replica,
                SparseVector* update) {
    const double eta = schedule->Rate(clock);
    std::fill(update_buffer.begin(), update_buffer.end(), 0.0);
    const auto& indices = shard.example_indices;
    size_t pos = 0;
    while (pos < indices.size()) {
      const size_t batch_end =
          std::min(pos + options.batch_size, indices.size());
      const size_t b = batch_end - pos;
      std::fill(batch_grad.begin(), batch_grad.end(), 0.0);
      const double inv_b = 1.0 / static_cast<double>(b);
      for (size_t k = pos; k < batch_end; ++k) {
        const Example& ex = dataset->example(indices[k]);
        AccumulateExampleGradient(*loss, ex.features, ex.label, *replica,
                                  inv_b, &batch_grad);
      }
      for (size_t k = pos; k < batch_end; ++k) {
        const Example& ex = dataset->example(indices[k]);
        for (size_t i = 0; i < ex.features.nnz(); ++i) {
          const size_t j = static_cast<size_t>(ex.features.index(i));
          batch_grad[j] += options.l2 * (*replica)[j] * inv_b;
        }
      }
      for (size_t k = pos; k < batch_end; ++k) {
        const Example& ex = dataset->example(indices[k]);
        for (size_t i = 0; i < ex.features.nnz(); ++i) {
          const size_t j = static_cast<size_t>(ex.features.index(i));
          const double g = batch_grad[j];
          if (g != 0.0) {
            (*replica)[j] -= eta * g;
            update_buffer[j] -= eta * g;
            batch_grad[j] = 0.0;
          }
        }
      }
      pos = batch_end;
    }
    *update = SparseVector::FromDense(update_buffer, 0.0);
  }
};

TEST(LocalWorkerSgdTest, MatchesLegacyReferenceBitwiseUnderScalar) {
  Dataset d = SmallSet();
  LogisticLoss loss;
  FixedRate rate(0.3);
  LocalWorkerSgd::Options opts;
  opts.batch_size = 7;  // uneven final batch
  opts.l2 = 1e-3;
  const kernels::KernelIsa installed =
      kernels::SetKernelIsaForTesting(kernels::KernelIsa::kScalar);
  ASSERT_EQ(installed, kernels::KernelIsa::kScalar);
  const size_t dim = static_cast<size_t>(d.dimension());
  std::vector<double> replica_a(dim, 0.0);
  std::vector<double> replica_b(dim, 0.0);
  LegacyReferenceSgd legacy(&d, FullShard(d), &loss, &rate, opts);
  LocalWorkerSgd rewritten(&d, FullShard(d), &loss, &rate, opts);
  for (int c = 0; c < 4; ++c) {
    SparseVector ua;
    SparseVector ub;
    legacy.RunClock(c, &replica_a, &ua);
    rewritten.RunClock(c, &replica_b, &ub);
    ASSERT_EQ(ua.nnz(), ub.nnz()) << "clock " << c;
    for (size_t i = 0; i < ua.nnz(); ++i) {
      EXPECT_EQ(ua.index(i), ub.index(i)) << "clock " << c;
      EXPECT_EQ(ua.value(i), ub.value(i))
          << "clock " << c << " coord " << ua.index(i);
    }
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(replica_a[j], replica_b[j])
          << "clock " << c << " coord " << j;
    }
  }
  kernels::ResetKernelIsaForTesting();
}

TEST(LocalWorkerSgdTest, MatchesLegacyReferenceUnderDispatchedIsa) {
  // Whatever table cpuid picked: the only reassociated quantity is the
  // per-example gather-dot margin, so trajectories agree to ~1e-9 over
  // a few clocks on a small problem.
  Dataset d = SmallSet();
  LogisticLoss loss;
  FixedRate rate(0.3);
  LocalWorkerSgd::Options opts;
  opts.batch_size = 7;
  opts.l2 = 1e-3;
  const size_t dim = static_cast<size_t>(d.dimension());
  std::vector<double> replica_a(dim, 0.0);
  std::vector<double> replica_b(dim, 0.0);
  LegacyReferenceSgd legacy(&d, FullShard(d), &loss, &rate, opts);
  LocalWorkerSgd rewritten(&d, FullShard(d), &loss, &rate, opts);
  for (int c = 0; c < 4; ++c) {
    SparseVector ua;
    SparseVector ub;
    legacy.RunClock(c, &replica_a, &ua);
    rewritten.RunClock(c, &replica_b, &ub);
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_NEAR(replica_a[j], replica_b[j], 1e-9)
          << "clock " << c << " coord " << j;
    }
  }
}

/// Line-for-line copy of the touched-list RunClock this file's trainer
/// replaced: batch membership by uint32 epoch stamps (a branch per
/// nonzero), a per-example Loss for the clock's mean loss, and a
/// std::sort of the clock's touched keys; only the stage histograms are
/// left out. The trainer gives each coordinate the same floating-point
/// operations, so under every dispatch table the two must agree bitwise.
struct TouchedListReferenceSgd {
  const Dataset* dataset_;
  DataShard shard_;
  const LossFunction* loss_;
  const LearningRateSchedule* schedule_;
  LocalWorkerSgd::Options options_;
  size_t dim_;
  std::vector<double> update_buffer_;
  std::vector<double> batch_grad_;
  std::vector<uint32_t> batch_stamp_;
  std::vector<uint32_t> clock_stamp_;
  std::vector<uint32_t> occ_;
  uint32_t batch_epoch_ = 0;
  uint32_t clock_epoch_ = 0;
  std::vector<int64_t> batch_touched_;
  std::vector<int64_t> clock_touched_;
  double mean_loss = 0.0;

  TouchedListReferenceSgd(const Dataset* d, DataShard s,
                          const LossFunction* l,
                          const LearningRateSchedule* sch,
                          LocalWorkerSgd::Options o)
      : dataset_(d), shard_(std::move(s)), loss_(l), schedule_(sch),
        options_(o), dim_(static_cast<size_t>(d->dimension())) {
    update_buffer_.assign(dim_, 0.0);
    batch_grad_.assign(dim_, 0.0);
    batch_stamp_.assign(dim_, 0);
    clock_stamp_.assign(dim_, 0);
    occ_.assign(dim_, 0);
  }

  static void BumpEpoch(uint32_t* epoch, std::vector<uint32_t>* stamps) {
    if (*epoch == std::numeric_limits<uint32_t>::max()) {
      std::fill(stamps->begin(), stamps->end(), 0);
      *epoch = 0;
    }
    ++*epoch;
  }

  LocalWorkerSgd::ClockStats RunClock(int clock,
                                      std::vector<double>* replica,
                                      SparseVector* update) {
    const double eta = schedule_->Rate(clock);
    const double l2 = options_.l2;
    LocalWorkerSgd::ClockStats stats;
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

      for (size_t k = pos; k < batch_end; ++k) {
        const Example& ex = dataset_->example(indices[k]);
        const size_t nnz = ex.features.nnz();
        const int64_t* const idx = ex.features.indices().data();
        const double* const val = ex.features.values().data();
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

      const uint32_t ce = clock_epoch_;
      for (const int64_t tj : batch_touched_) {
        const size_t j = static_cast<size_t>(tj);
        const double c = l2 * rep[j] * inv_b;
        for (uint32_t t = occ[j]; t > 0; --t) grad[j] += c;
        const double g = grad[j];
        if (g != 0.0) {
          rep[j] -= eta * g;
          upd[j] -= eta * g;
          grad[j] = 0.0;
          ++stats.buffer_reset_writes;
          if (cstamp[j] != ce) {
            cstamp[j] = ce;
            clock_touched_.push_back(tj);
          }
        }
      }

      stats.examples_processed += b;
      ++stats.batches;
      pos = batch_end;
    }

    std::sort(clock_touched_.begin(), clock_touched_.end());
    std::vector<int64_t> out_idx;
    std::vector<double> out_val;
    out_idx.reserve(clock_touched_.size());
    out_val.reserve(clock_touched_.size());
    for (const int64_t tj : clock_touched_) {
      const size_t j = static_cast<size_t>(tj);
      const double v = upd[j];
      if (std::fabs(v) > 0.0) {
        out_idx.push_back(tj);
        out_val.push_back(v);
      }
      upd[j] = 0.0;
      ++stats.buffer_reset_writes;
    }
    stats.coords_touched = clock_touched_.size();
    *update = SparseVector(std::move(out_idx), std::move(out_val));

    mean_loss = stats.examples_processed
                    ? loss_sum /
                          static_cast<double>(stats.examples_processed)
                    : 0.0;
    return stats;
  }
};

Dataset SyntheticSet(size_t examples, int64_t features, double avg_nnz,
                     double feature_skew, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_examples = examples;
  cfg.num_features = features;
  cfg.avg_nnz = avg_nnz;
  cfg.feature_skew = feature_skew;
  cfg.seed = seed;
  return GenerateSynthetic(cfg);
}

/// Bit patterns, so a -0.0/+0.0 or NaN-payload split shows too.
std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (const double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

/// Runs the trainer and the touched-list reference side by side for a
/// few clocks and requires equal updates, replicas, written keys and
/// stats, bit for bit. Returns how many examples, summed over the
/// clocks, had a zero margin gradient at their clock's start.
size_t ExpectMatchesTouchedListReference(const Dataset& d,
                                         const LossFunction& loss,
                                         LocalWorkerSgd::Options opts) {
  FixedRate rate(0.3);
  const size_t dim = static_cast<size_t>(d.dimension());
  std::vector<double> replica_a(dim, 0.0);
  std::vector<double> replica_b(dim, 0.0);
  TouchedListReferenceSgd reference(&d, FullShard(d), &loss, &rate, opts);
  LocalWorkerSgd trainer(&d, FullShard(d), &loss, &rate, opts);
  size_t zero_gradients = 0;
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("clock " + std::to_string(c));
    for (size_t i = 0; i < d.size(); ++i) {
      const Example& ex = d.example(i);
      const double margin = ex.features.Dot(replica_a);
      zero_gradients += loss.MarginGradient(margin, ex.label) == 0.0;
    }
    SparseVector ua;
    SparseVector ub;
    const auto sa = reference.RunClock(c, &replica_a, &ua);
    const auto sb = trainer.RunClock(c, &replica_b, &ub);
    EXPECT_GT(ua.nnz(), 0u);
    EXPECT_EQ(ua.indices(), ub.indices());
    EXPECT_EQ(Bits(ua.values()), Bits(ub.values()));
    EXPECT_EQ(Bits(replica_a), Bits(replica_b));
    EXPECT_EQ(reference.clock_touched_, trainer.written_keys());
    EXPECT_EQ(sa.examples_processed, sb.examples_processed);
    EXPECT_EQ(sa.batches, sb.batches);
    EXPECT_EQ(sa.nnz_processed, sb.nnz_processed);
    EXPECT_EQ(sa.coords_touched, sb.coords_touched);
    EXPECT_EQ(sa.buffer_reset_writes, sb.buffer_reset_writes);
  }
  return zero_gradients;
}

/// True iff some batch of `batch_size` examples touches every
/// coordinate of `d`'s model.
bool SomeBatchTouchesEveryCoordinate(const Dataset& d, size_t batch_size) {
  const size_t dim = static_cast<size_t>(d.dimension());
  for (size_t pos = 0; pos < d.size(); pos += batch_size) {
    std::vector<bool> seen(dim, false);
    size_t distinct = 0;
    for (size_t k = pos; k < std::min(pos + batch_size, d.size()); ++k) {
      for (const int64_t j : d.example(k).features.indices()) {
        distinct += !seen[static_cast<size_t>(j)];
        seen[static_cast<size_t>(j)] = true;
      }
    }
    if (distinct == dim) return true;
  }
  return false;
}

TEST(LocalWorkerSgdTest, MatchesTouchedListReferenceBitwiseUnderEveryIsa) {
  const Dataset one_pass = SmallSet();  // dim 40: one radix pass
  // dim 5000 needs two radix passes.
  const Dataset two_pass = SyntheticSet(300, 5000, 30, 1.1, 13);
  // A batch of 30 examples x ~6 nnz drawn uniformly from 12 coordinates
  // touches the whole model: the touched list runs at capacity.
  const Dataset saturated = SyntheticSet(90, 12, 6, 0.0, 17);
  ASSERT_TRUE(SomeBatchTouchesEveryCoordinate(saturated, 30));
  LogisticLoss logistic;
  HingeLoss hinge;  // g == 0 past the margin: the no-gradient loop
  struct Case {
    const char* name;
    const Dataset* data;
    const LossFunction* loss;
    size_t batch_size;
    size_t zero_gradients = 0;
  };
  Case cases[] = {
      {"one pass, logistic", &one_pass, &logistic, 7},
      {"one pass, hinge", &one_pass, &hinge, 7},
      {"two passes, logistic", &two_pass, &logistic, 30},
      {"two passes, hinge", &two_pass, &hinge, 30},
      {"saturated, logistic", &saturated, &logistic, 30},
      {"saturated, hinge", &saturated, &hinge, 30},
  };
  std::vector<kernels::KernelIsa> isas = {kernels::KernelIsa::kScalar};
  if (kernels::CpuSupportsAvx2Fma()) {
    isas.push_back(kernels::KernelIsa::kAvx2);
  }
  for (const kernels::KernelIsa isa : isas) {
    ASSERT_EQ(kernels::SetKernelIsaForTesting(isa), isa);
    for (Case& c : cases) {
      SCOPED_TRACE(std::string(kernels::KernelIsaName(isa)) + ", " +
                   c.name);
      LocalWorkerSgd::Options opts;
      opts.batch_size = c.batch_size;
      opts.l2 = 1e-3;
      c.zero_gradients =
          ExpectMatchesTouchedListReference(*c.data, *c.loss, opts);
    }
  }
  kernels::ResetKernelIsaForTesting();
  // Hinge training pushes examples past the margin, so the clocks took
  // the no-gradient loop too.
  for (const Case& c : cases) {
    if (c.loss == &hinge) {
      EXPECT_GT(c.zero_gradients, 0u) << c.name;
    }
  }
}

TEST(LocalWorkerSgdTest, ScratchWorkIsIndependentOfModelDimension) {
  // The PR-4 bugfix: per-clock dense-buffer writes must scale with the
  // shard's touched coordinates, not the model dimension. Run the same
  // examples embedded in models 16x apart in dimension and require
  // identical reset-write counts (the pre-rewrite trainer paid
  // O(dim) fills per batch, so its counts would differ by ~16x).
  SyntheticConfig small_cfg;
  small_cfg.num_examples = 40;
  small_cfg.num_features = 1 << 10;
  small_cfg.avg_nnz = 8;
  small_cfg.seed = 11;
  small_cfg.margin_gap = 0.0;
  Dataset small = GenerateSynthetic(small_cfg);
  // Same examples, much bigger model: re-declare the dimension.
  std::vector<Example> copies;
  for (size_t i = 0; i < small.size(); ++i) {
    copies.push_back(small.example(i));
  }
  Dataset big(std::move(copies), 1 << 14);

  LogisticLoss loss;
  FixedRate rate(0.2);
  LocalWorkerSgd::Options opts;
  opts.batch_size = 8;
  size_t resets[2];
  size_t touched[2];
  const Dataset* sets[2] = {&small, &big};
  for (int s = 0; s < 2; ++s) {
    const Dataset& d = *sets[s];
    LocalWorkerSgd sgd(&d, FullShard(d), &loss, &rate, opts);
    std::vector<double> replica(static_cast<size_t>(d.dimension()), 0.0);
    SparseVector update;
    const auto stats = sgd.RunClock(0, &replica, &update);
    resets[s] = stats.buffer_reset_writes;
    touched[s] = stats.coords_touched;
    // Never more than two writes per processed nnz (one per batch
    // touch, one per clock touch).
    EXPECT_LE(stats.buffer_reset_writes, 2 * stats.nnz_processed);
  }
  EXPECT_EQ(resets[0], resets[1]);
  EXPECT_EQ(touched[0], touched[1]);
}

TEST(LocalWorkerSgdTest, ReportsKernelIsaAndStageHistograms) {
  Dataset d = SmallSet();
  LogisticLoss loss;
  FixedRate rate(0.1);
  LocalWorkerSgd sgd(&d, FullShard(d), &loss, &rate, {});
  // Constructor publishes the resolved dispatch table as an info gauge.
  Gauge* isa_gauge = GlobalMetrics().gauge(
      "compute.kernel_isa",
      {{"isa", kernels::KernelIsaName(kernels::ActiveKernelIsa())}});
  EXPECT_TRUE(isa_gauge->has_value());
  EXPECT_EQ(isa_gauge->value(), 1.0);

  BucketedHistogram* gather = GlobalMetrics().histogram("compute.gather_us");
  BucketedHistogram* scatter =
      GlobalMetrics().histogram("compute.scatter_us");
  const int64_t gather_before = gather->count();
  const int64_t scatter_before = scatter->count();
  std::vector<double> replica(static_cast<size_t>(d.dimension()), 0.0);
  SparseVector update;
  const auto stats = sgd.RunClock(0, &replica, &update);
  EXPECT_EQ(gather->count() - gather_before,
            static_cast<int64_t>(stats.batches));
  EXPECT_EQ(scatter->count() - scatter_before,
            static_cast<int64_t>(stats.batches));
}

TEST(BatchSizeForFractionTest, TenPercentRule) {
  EXPECT_EQ(LocalWorkerSgd::BatchSizeForFraction(100, 0.1), 10u);
  EXPECT_EQ(LocalWorkerSgd::BatchSizeForFraction(5, 0.1), 1u);
  EXPECT_EQ(LocalWorkerSgd::BatchSizeForFraction(100, 1.0), 100u);
}

TEST(BatchSizeForFractionDeathTest, RejectsBadFraction) {
  EXPECT_DEATH(LocalWorkerSgd::BatchSizeForFraction(10, 0.0),
               "fraction");
  EXPECT_DEATH(LocalWorkerSgd::BatchSizeForFraction(10, 1.5),
               "fraction");
}

}  // namespace
}  // namespace hetps
