#include "ps/master.h"

#include <gtest/gtest.h>

#include <vector>

namespace hetps {
namespace {

TEST(MasterTest, StableVersionIsMinimumAcrossPartitions) {
  Master master(3);
  EXPECT_EQ(master.StableVersion(), 0);
  master.ReportVersion(0, 5);
  master.ReportVersion(1, 3);
  EXPECT_EQ(master.StableVersion(), 0);  // partition 2 never reported
  master.ReportVersion(2, 7);
  EXPECT_EQ(master.StableVersion(), 3);
  EXPECT_EQ(master.PartitionVersion(2), 7);
}

TEST(MasterTest, VersionReportsAreMonotone) {
  Master master(1);
  master.ReportVersion(0, 5);
  master.ReportVersion(0, 2);  // stale report must not regress
  EXPECT_EQ(master.PartitionVersion(0), 5);
}

TEST(MasterTest, RestoreVersionsReplacesEveryVersion) {
  Master master(2);
  master.ReportVersion(0, 4);
  master.ReportVersion(1, 6);
  const std::vector<int64_t> saved = master.VersionSnapshot();
  master.ReportVersion(0, 9);
  master.ReportVersion(1, 8);

  master.RestoreVersions(saved);
  EXPECT_EQ(master.PartitionVersion(0), 4);
  EXPECT_EQ(master.PartitionVersion(1), 6);
  EXPECT_EQ(master.StableVersion(), 4);
}

TEST(MasterDeathTest, ValidatesConstruction) {
  EXPECT_DEATH(Master(0), "partition");
  Master master(2);
  EXPECT_DEATH(master.RestoreVersions({1}), "size mismatch");
}

}  // namespace
}  // namespace hetps
