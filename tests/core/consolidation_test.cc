#include "core/consolidation.h"

#include <gtest/gtest.h>

#include "core/dyn_sgd.h"

namespace hetps {
namespace {

SparseVector U(std::vector<int64_t> idx, std::vector<double> val) {
  return SparseVector(std::move(idx), std::move(val));
}

TEST(SspRuleTest, AccumulatesAtFullWeight) {
  SspRule rule;
  rule.Reset(4, 3);
  ParamBlock w(4);
  rule.OnPush(0, 0, U({0}, {1.0}), &w);
  rule.OnPush(1, 0, U({0}, {2.0}), &w);
  EXPECT_DOUBLE_EQ(w.At(0), 3.0);
  EXPECT_EQ(rule.AuxMemoryBytes(), 0u);
  EXPECT_DOUBLE_EQ(rule.ObservedMeanStaleness(), 1.0);
}

TEST(SspRuleTest, MaterializeReturnsParameter) {
  SspRule rule;
  rule.Reset(2, 1);
  ParamBlock w(2);
  rule.OnPush(0, 0, U({1}, {5.0}), &w);
  const auto dense = rule.Materialize(w);
  EXPECT_DOUBLE_EQ(dense[1], 5.0);
}

// A single-version rule's read is w itself, so the count is w's.
TEST(SspRuleTest, CountNonZeroMaterializedAtCountsTheParameter) {
  SspRule rule;
  rule.Reset(4, 2);
  ParamBlock w(4);
  const int64_t keys[] = {0, 2};
  EXPECT_EQ(rule.CountNonZeroMaterializedAt(w, keys, 2), 0u);
  rule.OnPush(0, 0, U({0, 2}, {1.0, 3.0}), &w);
  EXPECT_EQ(rule.CountNonZeroMaterializedAt(w, keys, 2), 2u);
  rule.OnPush(1, 0, U({0}, {-1.0}), &w);  // key 0 cancels to exactly zero
  EXPECT_EQ(rule.CountNonZeroMaterializedAt(w, keys, 2), 1u);
}

TEST(ConRuleTest, HeuristicUsesInverseM) {
  ConRule rule;
  rule.Reset(4, 10);
  EXPECT_DOUBLE_EQ(rule.lambda_g(), 0.1);
  ParamBlock w(4);
  rule.OnPush(0, 0, U({0}, {5.0}), &w);
  EXPECT_DOUBLE_EQ(w.At(0), 0.5);
}

TEST(ConRuleTest, ExplicitLambdaOverridesHeuristic) {
  ConRule rule(0.25);
  rule.Reset(4, 10);
  EXPECT_DOUBLE_EQ(rule.lambda_g(), 0.25);
  ParamBlock w(4);
  rule.OnPush(0, 0, U({0}, {4.0}), &w);
  EXPECT_DOUBLE_EQ(w.At(0), 1.0);
}

TEST(ConRuleTest, BspEquivalenceToModelAveraging) {
  // With λg = 1/M, accumulating all M updates equals the BSP average
  // w + (1/M) Σ u_i (§4 "Hyperparameter-free Heuristic").
  const int m = 4;
  ConRule rule;
  rule.Reset(1, m);
  ParamBlock w(1);
  double sum = 0.0;
  for (int i = 0; i < m; ++i) {
    const double u = 1.0 + i;
    rule.OnPush(i, 0, U({0}, {u}), &w);
    sum += u;
  }
  EXPECT_NEAR(w.At(0), sum / m, 1e-12);
}

TEST(ConRuleDeathTest, RejectsBadLambda) {
  EXPECT_DEATH(ConRule(0.0), "lambda_g");
  EXPECT_DEATH(ConRule(1.5), "lambda_g");
}

TEST(ConRuleTest, CloneKeepsConfiguration) {
  ConRule rule(0.2);
  auto clone = rule.Clone();
  clone->Reset(2, 30);
  ParamBlock w(2);
  clone->OnPush(0, 0, U({0}, {10.0}), &w);
  EXPECT_DOUBLE_EQ(w.At(0), 2.0);  // still 0.2, not 1/30
}

TEST(MakeConsolidationRuleTest, FactoryByName) {
  EXPECT_EQ(MakeConsolidationRule("ssp")->name(), "SspSGD");
  EXPECT_EQ(MakeConsolidationRule("con")->name(), "ConSGD");
  EXPECT_EQ(MakeConsolidationRule("dyn")->name(), "DynSGD");
}

TEST(MakeConsolidationRuleDeathTest, RejectsUnknown) {
  EXPECT_DEATH(MakeConsolidationRule("bogus"), "unknown consolidation");
}

TEST(RuleCloneTest, ClonesAreIndependent) {
  SspRule proto;
  auto a = proto.Clone();
  auto b = proto.Clone();
  a->Reset(2, 1);
  b->Reset(2, 1);
  ParamBlock wa(2);
  ParamBlock wb(2);
  a->OnPush(0, 0, U({0}, {1.0}), &wa);
  EXPECT_DOUBLE_EQ(wb.At(0), 0.0);
}

}  // namespace
}  // namespace hetps
