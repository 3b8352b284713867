#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "obs/json.h"

namespace hetps {
namespace bench {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

JsonValue ReadBack(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  Result<JsonValue> doc = ParseJson(text.str());
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.ok() ? doc.value() : JsonValue();
}

std::vector<std::string> Keys(const JsonValue& object) {
  std::vector<std::string> keys;
  for (const auto& [k, v] : object.object) keys.push_back(k);
  return keys;
}

TEST(BenchReportTest, WritesOneV2DocumentWithSectionsAndGates) {
  const std::string path = TempPath("bench_report_v2.json");
  BenchReport report("demo", path);
  report.Set("active_isa", "avx2");
  report.Set("avx2_supported", true);
  report.Set("kernels.axpy.speedup", 3.25);
  report.Set("summary.e2e_speedup", 25.5);
  report.Set("summary.count", 127488.0);
  report.Set("summary.e2e_speedup", 26.0);  // overwrites in place
  report.Gate("e2e_speedup", 26.0, GateOp::kAtLeast, 3.0);
  report.Gate("dense", 1.5, GateOp::kAtLeast, 2.0, "no AVX2+FMA");
  report.Require("bitwise", true);
  EXPECT_EQ(report.Finish(), 0);  // the failing gate is skipped

  const JsonValue doc = ReadBack(path);
  EXPECT_EQ(Keys(doc),
            (std::vector<std::string>{"bench", "schema", "active_isa",
                                      "avx2_supported", "kernels", "summary",
                                      "gates"}));
  EXPECT_EQ(doc.Find("bench")->string_value, "demo");
  EXPECT_EQ(doc.Find("schema")->string_value, "hetps.bench.v2");
  EXPECT_EQ(doc.Find("active_isa")->string_value, "avx2");
  EXPECT_TRUE(doc.Find("avx2_supported")->bool_value);
  EXPECT_EQ(doc.Find("kernels")->Find("axpy")->Find("speedup")->number_value,
            3.25);
  const JsonValue& summary = *doc.Find("summary");
  EXPECT_EQ(Keys(summary), (std::vector<std::string>{"e2e_speedup", "count"}));
  EXPECT_EQ(summary.Find("e2e_speedup")->number_value, 26.0);
  EXPECT_EQ(summary.Find("count")->number_value, 127488.0);

  const JsonValue& gates = *doc.Find("gates");
  EXPECT_EQ(Keys(gates),
            (std::vector<std::string>{"e2e_speedup", "dense", "bitwise"}));
  const JsonValue& e2e = *gates.Find("e2e_speedup");
  EXPECT_EQ(Keys(e2e),
            (std::vector<std::string>{"value", "op", "bound", "pass"}));
  EXPECT_EQ(e2e.Find("value")->number_value, 26.0);
  EXPECT_EQ(e2e.Find("op")->string_value, ">=");
  EXPECT_EQ(e2e.Find("bound")->number_value, 3.0);
  EXPECT_TRUE(e2e.Find("pass")->bool_value);
  const JsonValue& dense = *gates.Find("dense");
  EXPECT_FALSE(dense.Find("pass")->bool_value);
  EXPECT_EQ(dense.Find("skipped")->string_value, "no AVX2+FMA");
  const JsonValue& bitwise = *gates.Find("bitwise");
  EXPECT_TRUE(bitwise.Find("value")->bool_value);
  EXPECT_EQ(bitwise.Find("op")->string_value, "==");
  EXPECT_TRUE(bitwise.Find("bound")->bool_value);
  EXPECT_TRUE(bitwise.Find("pass")->bool_value);
}

TEST(BenchReportTest, FailingGateGivesNonZeroExitCode) {
  const std::string path = TempPath("bench_report_fail.json");
  BenchReport report("demo", path);
  report.Set("rpc.reduction", 4.0);
  report.Gate("reduction", 4.0, GateOp::kAtLeast, 5.0);
  EXPECT_EQ(report.Finish(), 1);
  const JsonValue doc = ReadBack(path);
  EXPECT_FALSE(doc.Find("gates")->Find("reduction")->Find("pass")->bool_value);

  BenchReport unmet("demo", path);
  unmet.Require("bitwise", false);
  EXPECT_EQ(unmet.Finish(), 1);
}

TEST(BenchReportTest, EachComparisonHoldsOnlyOnItsSideOfTheBound) {
  struct Case {
    GateOp op;
    double value;
    bool pass;
  };
  const Case cases[] = {
      {GateOp::kAtLeast, 2.0, true},  {GateOp::kAtLeast, 1.9, false},
      {GateOp::kAbove, 2.1, true},    {GateOp::kAbove, 2.0, false},
      {GateOp::kAtMost, 2.0, true},   {GateOp::kAtMost, 2.1, false},
      {GateOp::kBelow, 1.9, true},    {GateOp::kBelow, 2.0, false},
  };
  const std::string path = TempPath("bench_report_ops.json");
  for (const Case& c : cases) {
    BenchReport report("demo", path);
    report.Gate("g", c.value, c.op, 2.0);
    EXPECT_EQ(report.Finish(), c.pass ? 0 : 1)
        << static_cast<int>(c.op) << " " << c.value;
  }
}

TEST(BenchReportTest, UnwritablePathFails) {
  BenchReport report("demo", TempPath("no/such/dir/report.json"));
  report.Gate("g", 1.0, GateOp::kAtLeast, 0.0);
  EXPECT_EQ(report.Finish(), 1);
}

TEST(BenchReportDeathTest, RejectsReservedKeysAndShapeClashes) {
  BenchReport report("demo", TempPath("unused.json"));
  report.Set("summary.x", 1.0);
  EXPECT_DEATH(report.Set("gates.x", 1.0), "reserved");
  EXPECT_DEATH(report.Set("summary", 1.0), "is a section");
  EXPECT_DEATH(report.Set("summary.x.y", 1.0), "not a section");
}

}  // namespace
}  // namespace bench
}  // namespace hetps
