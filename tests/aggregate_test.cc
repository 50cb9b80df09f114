#include <gtest/gtest.h>

#include "cdi/aggregate.h"

namespace cdibot {
namespace {

TEST(CdiAccumulatorTest, EmptyIsZero) {
  CdiAccumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_DOUBLE_EQ(acc.Value(), 0.0);
}

TEST(CdiAccumulatorTest, SingleValuePassesThrough) {
  CdiAccumulator acc;
  acc.Add(Duration::Minutes(60), 0.25);
  EXPECT_DOUBLE_EQ(acc.Value(), 0.25);
  EXPECT_EQ(acc.total_service_time(), Duration::Minutes(60));
}

// Table IV bottom row: Q_all = (60*0.020 + 1440*0.002 + 1000*0.004) / 2500
// = 0.003 (the paper rounds; exact value is 0.003232 with exact Q_2).
TEST(CdiAccumulatorTest, PaperTable4Aggregate) {
  CdiAccumulator acc;
  acc.Add(Duration::Minutes(60), 0.020);
  acc.Add(Duration::Minutes(1440), 0.002);
  acc.Add(Duration::Minutes(1000), 0.004);
  EXPECT_NEAR(acc.Value(), (60 * 0.020 + 1440 * 0.002 + 1000 * 0.004) / 2500.0,
              1e-12);
  EXPECT_NEAR(acc.Value(), 0.003, 5e-4);
}

TEST(CdiAccumulatorTest, ZeroServiceTimeEntriesDoNotCount) {
  CdiAccumulator acc;
  acc.Add(Duration::Zero(), 0.9);
  EXPECT_TRUE(acc.empty());
  EXPECT_DOUBLE_EQ(acc.Value(), 0.0);
}

TEST(CdiAccumulatorTest, MergeEqualsUnion) {
  CdiAccumulator a, b, merged;
  a.Add(Duration::Minutes(30), 0.1);
  a.Add(Duration::Minutes(90), 0.5);
  b.Add(Duration::Minutes(60), 0.9);
  merged.Add(Duration::Minutes(30), 0.1);
  merged.Add(Duration::Minutes(90), 0.5);
  merged.Add(Duration::Minutes(60), 0.9);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Value(), merged.Value());
  EXPECT_EQ(a.total_service_time(), merged.total_service_time());
}

TEST(CdiAccumulatorTest, ValueIsWithinInputRange) {
  CdiAccumulator acc;
  acc.Add(Duration::Minutes(10), 0.2);
  acc.Add(Duration::Minutes(50), 0.8);
  EXPECT_GE(acc.Value(), 0.2);
  EXPECT_LE(acc.Value(), 0.8);
}

VmCdi FoldAll(const std::vector<VmCdi>& vms) {
  FleetCdiPartial fleet;
  for (const VmCdi& vm : vms) fleet.AddVm(vm);
  return fleet.Finalize();
}

TEST(AggregateVmCdiTest, AggregatesEachSubMetric) {
  std::vector<VmCdi> vms = {
      VmCdi{.unavailability = 0.1,
            .performance = 0.2,
            .control_plane = 0.0,
            .service_time = Duration::Minutes(100)},
      VmCdi{.unavailability = 0.3,
            .performance = 0.0,
            .control_plane = 0.4,
            .service_time = Duration::Minutes(300)},
  };
  const VmCdi all = FoldAll(vms);
  EXPECT_NEAR(all.unavailability, (100 * 0.1 + 300 * 0.3) / 400.0, 1e-12);
  EXPECT_NEAR(all.performance, (100 * 0.2) / 400.0, 1e-12);
  EXPECT_NEAR(all.control_plane, (300 * 0.4) / 400.0, 1e-12);
  EXPECT_EQ(all.service_time, Duration::Minutes(400));
}

TEST(AggregateVmCdiTest, EmptyInput) {
  const VmCdi all = FoldAll({});
  EXPECT_DOUBLE_EQ(all.unavailability, 0.0);
  EXPECT_DOUBLE_EQ(all.performance, 0.0);
  EXPECT_DOUBLE_EQ(all.control_plane, 0.0);
  EXPECT_EQ(all.service_time, Duration::Zero());
}

TEST(AggregateVmCdiTest, AggregationIsIdempotentOnUniformFleet) {
  // Every VM identical -> aggregate equals the individual value.
  std::vector<VmCdi> vms(10, VmCdi{.unavailability = 0.05,
                                   .performance = 0.01,
                                   .control_plane = 0.02,
                                   .service_time = Duration::Days(1)});
  const VmCdi all = FoldAll(vms);
  EXPECT_NEAR(all.unavailability, 0.05, 1e-12);
  EXPECT_NEAR(all.performance, 0.01, 1e-12);
  EXPECT_NEAR(all.control_plane, 0.02, 1e-12);
}

}  // namespace
}  // namespace cdibot
