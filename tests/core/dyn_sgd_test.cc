#include "core/dyn_sgd.h"

#include <gtest/gtest.h>

namespace hetps {
namespace {

SparseVector U(double value) {
  return SparseVector({0}, {value});
}

DynSgdRule::Options Alg2Options() {
  DynSgdRule::Options o;
  o.version_mode = DynSgdRule::VersionMode::kAlgorithm2;
  return o;
}

// Appendix C's revision example, replayed verbatim in Algorithm-2 mode
// with scalar updates a=1, b=2, c=4, d=16, e=8, f=32, g=64.
TEST(DynSgdAlgorithm2Test, AppendixCRevisionExample) {
  DynSgdRule rule(Alg2Options());
  rule.Reset(1, 4);
  ParamBlock w(1);

  rule.OnPush(/*W1*/ 0, 0, U(1.0), &w);   // a -> u(PS,0)=a
  EXPECT_DOUBLE_EQ(w.At(0), 1.0);
  rule.OnPush(0, 1, U(2.0), &w);          // b -> u(PS,1)=b
  EXPECT_DOUBLE_EQ(w.At(0), 3.0);
  rule.OnPush(/*W2*/ 1, 0, U(4.0), &w);   // c revises u(PS,0)=(a+c)/2
  EXPECT_DOUBLE_EQ(w.At(0), 2.5 + 2.0);
  rule.OnPush(/*W3*/ 2, 0, U(16.0), &w);  // d -> u(PS,0)=(a+c+d)/3
  EXPECT_DOUBLE_EQ(w.At(0), 7.0 + 2.0);
  rule.OnPush(0, 2, U(8.0), &w);          // e -> u(PS,2)=e
  EXPECT_DOUBLE_EQ(w.At(0), 17.0);

  // Step 4 of the example: W2 pulls (a+c+d)/3 + b + e and V(W2) <- 3.
  EXPECT_DOUBLE_EQ(rule.Materialize(w)[0], 17.0);
  rule.OnPull(1, /*cmax=*/3);
  EXPECT_EQ(rule.WorkerVersion(1), 3);

  rule.OnPush(/*W4*/ 3, 0, U(32.0), &w);  // f -> u(PS,0)=(a+c+d+f)/4
  EXPECT_DOUBLE_EQ(w.At(0), 53.0 / 4.0 + 10.0);
  rule.OnPush(1, 1, U(64.0), &w);         // g -> u(PS,3)=g
  EXPECT_DOUBLE_EQ(w.At(0), 53.0 / 4.0 + 10.0 + 64.0);
}

TEST(DynSgdAlgorithm2Test, StalenessCountsSharedVersions) {
  DynSgdRule rule(Alg2Options());
  rule.Reset(1, 3);
  ParamBlock w(1);
  rule.OnPush(0, 0, U(1.0), &w);
  EXPECT_EQ(rule.StalenessOf(0), 2);  // S(0) after the first push
  rule.OnPush(1, 0, U(1.0), &w);
  EXPECT_EQ(rule.StalenessOf(0), 3);
  rule.OnPush(2, 0, U(1.0), &w);
  // All three workers passed version 0 -> evicted.
  EXPECT_EQ(rule.StalenessOf(0), 0);
  EXPECT_EQ(rule.ActiveVersionCount(), 0u);
}

TEST(DynSgdClockAlignedTest, SameClockSharesVersion) {
  DynSgdRule rule;  // default clock-aligned
  rule.Reset(1, 3);
  ParamBlock w(1);
  rule.OnPush(0, 0, U(3.0), &w);
  EXPECT_DOUBLE_EQ(w.At(0), 3.0);  // first update at full weight
  rule.OnPush(1, 0, U(9.0), &w);
  EXPECT_DOUBLE_EQ(w.At(0), 6.0);  // revised to the mean (3+9)/2
  rule.OnPush(2, 0, U(6.0), &w);
  EXPECT_DOUBLE_EQ(w.At(0), 6.0);  // (3+9+6)/3
}

TEST(DynSgdClockAlignedTest, StragglerJoinsOldVersionAtLowWeight) {
  DynSgdRule rule;
  rule.Reset(1, 3);
  ParamBlock w(1);
  // Workers 0 and 1 push clocks 0 and 1; straggler (2) still at clock 0.
  rule.OnPush(0, 0, U(1.0), &w);
  rule.OnPush(1, 0, U(1.0), &w);
  rule.OnPush(0, 1, U(1.0), &w);
  rule.OnPush(1, 1, U(1.0), &w);
  const double before = w.At(0);
  // The straggler's huge delayed update lands on version 0 with
  // staleness 3: only a third of it is applied.
  rule.OnPush(2, 0, U(30.0), &w);
  // w gains (30 - mean(1,1))/3 = 29/3 - ... exactly:
  // u(PS,0) was 1; Δ = (30 - 1)/3.
  EXPECT_NEAR(w.At(0) - before, (30.0 - 1.0) / 3.0, 1e-12);
  EXPECT_LT(w.At(0) - before, 30.0 / 2.0);
}

TEST(DynSgdClockAlignedTest, EvictionWindowIsCmaxMinusCmin) {
  DynSgdRule rule;
  rule.Reset(1, 2);
  ParamBlock w(1);
  // Worker 0 races ahead; worker 1 stays at clock 0 -> nothing evicted.
  for (int c = 0; c < 5; ++c) rule.OnPush(0, c, U(1.0), &w);
  EXPECT_EQ(rule.ActiveVersionCount(), 5u);
  // Worker 1 finishes clocks 0..3 -> versions 0..3 evicted.
  for (int c = 0; c < 4; ++c) rule.OnPush(1, c, U(1.0), &w);
  EXPECT_EQ(rule.ActiveVersionCount(), 1u);
  EXPECT_EQ(rule.StalenessOf(4), 2);  // version 4 live, one push
}

TEST(DynSgdClockAlignedTest, EvictionPreservesParameterInImmediateMode) {
  DynSgdRule rule;
  rule.Reset(1, 2);
  ParamBlock w(1);
  rule.OnPush(0, 0, U(2.0), &w);
  rule.OnPush(1, 0, U(4.0), &w);  // version 0 evicted after this push
  EXPECT_EQ(rule.ActiveVersionCount(), 0u);
  EXPECT_DOUBLE_EQ(w.At(0), 3.0);  // mean survived eviction
}

TEST(DynSgdDeferredTest, BaseParameterUntouchedUntilEviction) {
  DynSgdRule::Options opts;
  opts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule rule(opts);
  rule.Reset(1, 2);
  ParamBlock w(1);
  rule.OnPush(0, 0, U(2.0), &w);
  EXPECT_DOUBLE_EQ(w.At(0), 0.0);  // not applied yet
  EXPECT_DOUBLE_EQ(rule.Materialize(w)[0], 2.0);  // but readable
  rule.OnPush(1, 0, U(4.0), &w);  // eviction folds version 0 into w
  EXPECT_DOUBLE_EQ(w.At(0), 3.0);
  EXPECT_DOUBLE_EQ(rule.Materialize(w)[0], 3.0);
}

TEST(DynSgdDeferredTest, MaterializeAtVersionGivesSnapshots) {
  DynSgdRule::Options opts;
  opts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule rule(opts);
  rule.Reset(1, 3);
  ParamBlock w(1);
  rule.OnPush(0, 0, U(3.0), &w);   // version 0
  rule.OnPush(0, 1, U(10.0), &w);  // version 1
  EXPECT_DOUBLE_EQ(rule.MaterializeAtVersion(w, 0)[0], 0.0);
  EXPECT_DOUBLE_EQ(rule.MaterializeAtVersion(w, 1)[0], 3.0);
  EXPECT_DOUBLE_EQ(rule.MaterializeAtVersion(w, 2)[0], 13.0);
  EXPECT_EQ(rule.CurrentVersion(), 2);
}

// Deferred mode reads w plus the live version summaries, so the count
// follows the read, not w: a summary can add nonzeros w lacks or cancel
// one it has.
TEST(DynSgdDeferredTest, CountNonZeroMaterializedAtCountsTheRead) {
  DynSgdRule::Options opts;
  opts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule rule(opts);
  rule.Reset(3, 2);
  ParamBlock w(3);
  const int64_t keys[] = {0, 1, 2};
  const auto read_nnz = [&] {
    size_t n = 0;
    for (double v : rule.Materialize(w)) n += v != 0.0 ? 1 : 0;
    return n;
  };
  rule.OnPush(0, 0, SparseVector({0, 2}, {2.0, 1.0}), &w);  // version 0
  EXPECT_EQ(w.CountNonZeroAt(keys, 3), 0u);
  EXPECT_EQ(rule.CountNonZeroMaterializedAt(w, keys, 3), 2u);
  EXPECT_EQ(read_nnz(), 2u);
  rule.OnPush(1, 0, SparseVector({0, 2}, {-2.0, 3.0}), &w);  // evicts v0
  EXPECT_EQ(rule.LiveVersionCount(), 0u);
  EXPECT_DOUBLE_EQ(w.At(0), 0.0);
  EXPECT_DOUBLE_EQ(w.At(2), 2.0);
  EXPECT_EQ(rule.CountNonZeroMaterializedAt(w, keys, 3), 1u);
  rule.OnPush(0, 1, SparseVector({2}, {-2.0}), &w);  // version 1 cancels w
  EXPECT_EQ(w.CountNonZeroAt(keys, 3), 1u);
  EXPECT_EQ(rule.CountNonZeroMaterializedAt(w, keys, 3), 0u);
  EXPECT_EQ(read_nnz(), 0u);
}

TEST(DynSgdTest, CompletedVersionCountIsMinWorkerProgress) {
  DynSgdRule rule;
  rule.Reset(1, 3);
  ParamBlock w(1);
  EXPECT_EQ(rule.CompletedVersionCount(), 0);
  rule.OnPush(0, 0, U(1.0), &w);
  rule.OnPush(0, 1, U(1.0), &w);
  rule.OnPush(1, 0, U(1.0), &w);
  EXPECT_EQ(rule.CompletedVersionCount(), 0);  // worker 2 at clock 0
  rule.OnPush(2, 0, U(1.0), &w);
  EXPECT_EQ(rule.CompletedVersionCount(), 1);
  EXPECT_EQ(rule.LiveVersionCount(), 1u);  // version 0 evicted
}

TEST(DynSgdTest, LiveVersionCountTracksActiveVersions) {
  DynSgdRule rule;
  rule.Reset(1, 2);
  ParamBlock w(1);
  EXPECT_EQ(rule.LiveVersionCount(), 0u);
  rule.OnPush(0, 0, U(1.0), &w);
  rule.OnPush(0, 1, U(1.0), &w);
  rule.OnPush(0, 2, U(1.0), &w);
  EXPECT_EQ(rule.LiveVersionCount(), 3u);
  rule.OnPush(1, 0, U(1.0), &w);
  rule.OnPush(1, 1, U(1.0), &w);
  EXPECT_EQ(rule.LiveVersionCount(), 1u);
}

TEST(DynSgdTest, ObservedMeanStalenessTracksD) {
  DynSgdRule rule;
  rule.Reset(1, 2);
  ParamBlock w(1);
  rule.OnPush(0, 0, U(1.0), &w);  // d=1
  rule.OnPush(1, 0, U(1.0), &w);  // d=2
  EXPECT_DOUBLE_EQ(rule.ObservedMeanStaleness(), 1.5);
}

TEST(DynSgdTest, AuxMemoryGrowsWithLiveVersionsAndShrinksOnEviction) {
  DynSgdRule rule;
  rule.Reset(64, 2);
  ParamBlock w(64);
  SparseVector update({0, 5, 9}, {1.0, 1.0, 1.0});
  for (int c = 0; c < 4; ++c) rule.OnPush(0, c, update, &w);
  const size_t with_four = rule.AuxMemoryBytes();
  for (int c = 0; c < 3; ++c) rule.OnPush(1, c, update, &w);
  EXPECT_LT(rule.AuxMemoryBytes(), with_four);
}

TEST(DynSgdTest, FilterDropsTinySummaryEntries) {
  DynSgdRule::Options filtered_opts;
  filtered_opts.filter_epsilon = 1e-6;
  filtered_opts.compact_every = 1;
  DynSgdRule filtered(filtered_opts);
  DynSgdRule::Options plain_opts;
  plain_opts.compact_every = 0;
  DynSgdRule plain(plain_opts);
  filtered.Reset(8, 2);
  plain.Reset(8, 2);
  ParamBlock wf(8);
  ParamBlock wp(8);
  const SparseVector u({0, 1, 2, 3}, {1e-9, 0.5, 1e-8, 1e-7});
  filtered.OnPush(0, 0, u, &wf);
  plain.OnPush(0, 0, u, &wp);
  // The filtered summary dropped three of the four entries.
  EXPECT_LT(filtered.AuxMemoryBytes(), plain.AuxMemoryBytes());
}

TEST(DynSgdTest, CloneCopiesOptionsNotState) {
  DynSgdRule::Options opts;
  opts.mode = DynSgdRule::ApplyMode::kDeferred;
  DynSgdRule rule(opts);
  rule.Reset(1, 2);
  ParamBlock w(1);
  rule.OnPush(0, 0, U(1.0), &w);
  auto clone = rule.Clone();
  clone->Reset(1, 2);
  EXPECT_EQ(static_cast<DynSgdRule*>(clone.get())->ActiveVersionCount(),
            0u);
}

TEST(DynSgdDeathTest, PushBeforeResetDies) {
  DynSgdRule rule;
  ParamBlock w(1);
  EXPECT_DEATH(rule.OnPush(0, 0, U(1.0), &w), "out of range");
}

}  // namespace
}  // namespace hetps
