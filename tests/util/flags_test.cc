#include "util/flags.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace hetps {
namespace {

FlagParser Parsed(std::vector<const char*> args) {
  FlagParser p;
  EXPECT_TRUE(p.Parse(static_cast<int>(args.size()), args.data()).ok());
  return p;
}

TEST(FlagParserTest, ParsesEqualsAndSpaceForms) {
  FlagParser p = Parsed({"--alpha=0.5", "--workers", "8", "--verbose"});
  double alpha = 0.0;
  int workers = 0;
  bool verbose = false;
  EXPECT_TRUE(p.Read("alpha", &alpha).ok());
  EXPECT_TRUE(p.Read("workers", &workers).ok());
  EXPECT_TRUE(p.Read("verbose", &verbose).ok());
  EXPECT_DOUBLE_EQ(alpha, 0.5);
  EXPECT_EQ(workers, 8);
  EXPECT_TRUE(verbose);
  EXPECT_TRUE(p.Check().ok());
}

TEST(FlagParserTest, DefaultsWhenMissing) {
  FlagParser p = Parsed({});
  std::string mode = "train";
  int n = 7;
  bool quiet = false;
  EXPECT_TRUE(p.Read("mode", &mode).ok());
  EXPECT_TRUE(p.Read("n", &n).ok());
  EXPECT_TRUE(p.Read("quiet", &quiet).ok());
  EXPECT_EQ(mode, "train");
  EXPECT_EQ(n, 7);
  EXPECT_FALSE(quiet);
  EXPECT_TRUE(p.Check().ok());
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser p = Parsed({"train", "--k=3", "data.libsvm"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "train");
  EXPECT_EQ(p.positional()[1], "data.libsvm");
}

TEST(FlagParserTest, RejectsDuplicatesAndEmptyNames) {
  FlagParser p;
  const char* dup[] = {"--x=1", "--x=2"};
  EXPECT_FALSE(p.Parse(2, dup).ok());
  FlagParser p2;
  const char* empty[] = {"--=1"};
  EXPECT_FALSE(p2.Parse(1, empty).ok());
}

TEST(FlagParserTest, TypeErrorsSurfaceAsStatus) {
  FlagParser p = Parsed({"--n=abc", "--x=1.2.3", "--big=99999999999",
                         "--seed=-1", "--nan=nan"});
  int n = 0;
  double x = 0.0;
  int big = 0;
  uint64_t seed = 0;
  double nan = 0.0;
  EXPECT_TRUE(p.Read("n", &n).IsInvalidArgument());
  EXPECT_TRUE(p.Read("x", &x).IsInvalidArgument());
  // Out of the field's range is malformed too, not wrapped.
  EXPECT_TRUE(p.Read("big", &big).IsInvalidArgument());
  EXPECT_TRUE(p.Read("seed", &seed).IsInvalidArgument());
  // A number reads whole; range checks belong to the options' Validate.
  EXPECT_TRUE(p.Read("nan", &nan).ok());
  EXPECT_TRUE(std::isnan(nan));
}

// A malformed value answers InvalidArgument naming the flag, leaves the
// field at its default, and is what Check() reports.
TEST(FlagParserTest, MalformedValueLeavesTheFieldUnchanged) {
  FlagParser p = Parsed({"--clocks=2x", "--workers=3"});
  int clocks = 10;
  int workers = 4;
  const Status st = p.Read("clocks", &clocks);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("flag --clocks expects"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("'2x'"), std::string::npos) << st.message();
  EXPECT_EQ(clocks, 10);
  EXPECT_TRUE(p.Read("workers", &workers).ok());
  EXPECT_EQ(workers, 3);
  EXPECT_EQ(p.Check(), st);
}

TEST(FlagParserTest, BoolValueForms) {
  FlagParser p = Parsed({"--a=true", "--b=1", "--c=yes", "--d=false",
                         "--e=0", "--f=no", "--g", "--h=ture"});
  bool a = false, b = false, c = false, g = false;
  bool d = true, e = true, f = true;
  EXPECT_TRUE(p.Read("a", &a).ok());
  EXPECT_TRUE(p.Read("b", &b).ok());
  EXPECT_TRUE(p.Read("c", &c).ok());
  EXPECT_TRUE(p.Read("d", &d).ok());
  EXPECT_TRUE(p.Read("e", &e).ok());
  EXPECT_TRUE(p.Read("f", &f).ok());
  EXPECT_TRUE(p.Read("g", &g).ok());
  EXPECT_TRUE(a && b && c && g);
  EXPECT_FALSE(d || e || f);
  // A misspelt bool no longer reads as false.
  bool h = true;
  EXPECT_TRUE(p.Read("h", &h).IsInvalidArgument());
  EXPECT_TRUE(h);
  EXPECT_FALSE(p.Check().ok());
}

TEST(FlagParserTest, UnusedFlagsDetectTypos) {
  FlagParser p = Parsed({"--learning-rate=0.1", "--lr=0.2"});
  double rate = 0.0;
  EXPECT_TRUE(p.Read("learning-rate", &rate).ok());
  const Status st = p.Check();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("unknown flag --lr"), std::string::npos)
      << st.message();
}

enum class Color { kRed, kBlue };

TEST(FlagParserTest, ChoicesRejectOtherNames) {
  FlagParser p = Parsed({"--rule=bogus", "--color=blue", "--shade=dark"});
  std::string rule = "dyn";
  EXPECT_TRUE(p.Read("rule", &rule, {"ssp", "con", "dyn"}).IsInvalidArgument());
  EXPECT_EQ(rule, "dyn");
  Color color = Color::kRed;
  const std::vector<std::pair<std::string, Color>> colors = {
      {"red", Color::kRed}, {"blue", Color::kBlue}};
  EXPECT_TRUE(p.Read("color", &color, colors).ok());
  EXPECT_EQ(color, Color::kBlue);
  Color shade = Color::kRed;
  EXPECT_TRUE(p.Read("shade", &shade, colors).IsInvalidArgument());
  EXPECT_EQ(shade, Color::kRed);
}

TEST(FlagParserTest, UsageListsEachReadFlagWithTypeAndDefault) {
  FlagParser p = Parsed({});
  int clocks = 20;
  double lr = 0.3;
  bool decay = false;
  std::string rule = "dyn";
  (void)p.Read("clocks", &clocks);
  (void)p.Read("lr", &lr);
  (void)p.Read("decay", &decay);
  (void)p.Read("rule", &rule, {"ssp", "con", "dyn"});
  (void)p.Read("clocks", &clocks);  // listed once
  const std::string usage = p.Usage();
  EXPECT_NE(usage.find("--clocks=int"), std::string::npos) << usage;
  EXPECT_NE(usage.find("default 20"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--lr=number"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--decay=bool"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--rule=ssp|con|dyn"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("--clocks"), usage.rfind("--clocks")) << usage;
}

}  // namespace
}  // namespace hetps
