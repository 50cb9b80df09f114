#include <gtest/gtest.h>

#include "cdi/drilldown.h"
#include "common/rng.h"

namespace cdibot {
namespace {

VmCdiRecord Rec(const std::string& vm, const std::string& region,
                const std::string& az, double u, double p, double c,
                int64_t minutes = 1440) {
  return VmCdiRecord{
      .vm_id = vm,
      .dims = {{"region", region}, {"az", az}},
      .cdi = VmCdi{.unavailability = u,
                   .performance = p,
                   .control_plane = c,
                   .service_time = Duration::Minutes(minutes)}};
}

TEST(DrillDownTest, GroupsByDimension) {
  std::vector<VmCdiRecord> records = {
      Rec("vm-1", "r0", "r0-az0", 0.1, 0.0, 0.0),
      Rec("vm-2", "r0", "r0-az1", 0.3, 0.0, 0.0),
      Rec("vm-3", "r1", "r1-az0", 0.5, 0.0, 0.0),
  };
  auto by_region = RunDrilldown(records, {.dimensions = {"region"}});
  ASSERT_TRUE(by_region.ok());
  ASSERT_EQ(by_region->groups.size(), 2u);
  EXPECT_EQ(by_region->groups[0].key, "r0");
  EXPECT_EQ(by_region->groups[0].vm_count, 2u);
  EXPECT_NEAR(by_region->groups[0].cdi.unavailability, 0.2, 1e-12);
  EXPECT_EQ(by_region->groups[1].key, "r1");
  EXPECT_NEAR(by_region->groups[1].cdi.unavailability, 0.5, 1e-12);
  EXPECT_EQ(by_region->records_scanned, 3u);
  EXPECT_EQ(by_region->records_filtered, 0u);
}

TEST(DrillDownTest, ServiceTimeWeighting) {
  std::vector<VmCdiRecord> records = {
      Rec("vm-1", "r0", "az", 0.0, 0.1, 0.0, 100),
      Rec("vm-2", "r0", "az", 0.0, 0.4, 0.0, 300),
  };
  auto result = RunDrilldown(records, {.dimensions = {"region"}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->groups.size(), 1u);
  EXPECT_NEAR(result->groups[0].cdi.performance,
              (100 * 0.1 + 300 * 0.4) / 400.0, 1e-12);
  EXPECT_EQ(result->groups[0].cdi.service_time, Duration::Minutes(400));
}

TEST(DrillDownTest, MissingDimensionGroupsUnderEmptyKey) {
  std::vector<VmCdiRecord> records = {Rec("vm-1", "r0", "az", 0.1, 0, 0)};
  records.push_back(VmCdiRecord{
      .vm_id = "vm-nodim",
      .cdi = VmCdi{.unavailability = 0.9,
                   .service_time = Duration::Minutes(10)}});
  auto result = RunDrilldown(records, {.dimensions = {"region"}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->groups.size(), 2u);
  EXPECT_EQ(result->groups[0].key, "");  // sorted first
  EXPECT_EQ(result->groups[0].vm_count, 1u);
}

TEST(DrillDownTest, DrillDownConsistency) {
  // Aggregating the drill-down groups reproduces the global aggregate.
  std::vector<VmCdiRecord> records = {
      Rec("vm-1", "r0", "az0", 0.1, 0.2, 0.3, 100),
      Rec("vm-2", "r0", "az1", 0.4, 0.5, 0.6, 200),
      Rec("vm-3", "r1", "az2", 0.7, 0.8, 0.9, 300),
  };
  FleetCdiPartial all;
  for (const auto& r : records) all.AddVm(r.cdi);
  const VmCdi global = all.Finalize();

  FleetCdiPartial groups;
  auto by_region = RunDrilldown(records, {.dimensions = {"region"}});
  ASSERT_TRUE(by_region.ok());
  for (const DrilldownGroup& g : by_region->groups) groups.AddVm(g.cdi);
  const VmCdi regrouped = groups.Finalize();
  EXPECT_NEAR(global.unavailability, regrouped.unavailability, 1e-12);
  EXPECT_NEAR(global.performance, regrouped.performance, 1e-12);
  EXPECT_NEAR(global.control_plane, regrouped.control_plane, 1e-12);
}

TEST(DrillDownTest, MultiDimensionCompositeGroups) {
  std::vector<VmCdiRecord> records = {
      Rec("vm-1", "r0", "az0", 0.1, 0.0, 0.0, 100),
      Rec("vm-2", "r0", "az1", 0.3, 0.0, 0.0, 100),
      Rec("vm-3", "r0", "az0", 0.5, 0.0, 0.0, 100),
      Rec("vm-4", "r1", "az0", 0.7, 0.0, 0.0, 100),
  };
  auto result = RunDrilldown(records, {.dimensions = {"region", "az"}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->groups.size(), 3u);
  EXPECT_EQ(result->groups[0].key, "r0/az0");
  EXPECT_EQ(result->groups[0].values, (std::vector<std::string>{"r0", "az0"}));
  EXPECT_EQ(result->groups[0].vm_count, 2u);
  EXPECT_NEAR(result->groups[0].cdi.unavailability, 0.3, 1e-12);
  EXPECT_EQ(result->groups[1].key, "r0/az1");
  EXPECT_EQ(result->groups[2].key, "r1/az0");
}

TEST(DrillDownTest, FilterRestrictsRecords) {
  std::vector<VmCdiRecord> records = {
      Rec("vm-1", "r0", "az0", 0.1, 0.0, 0.0),
      Rec("vm-2", "r0", "az1", 0.3, 0.0, 0.0),
      Rec("vm-3", "r1", "az2", 0.5, 0.0, 0.0),
  };
  auto result = RunDrilldown(
      records, {.dimensions = {"az"}, .filter = {{"region", "r0"}}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->groups.size(), 2u);
  EXPECT_EQ(result->groups[0].key, "az0");
  EXPECT_EQ(result->groups[1].key, "az1");
  EXPECT_EQ(result->records_scanned, 3u);
  EXPECT_EQ(result->records_filtered, 1u);
}

TEST(DrillDownTest, PropagatesDataQuality) {
  std::vector<VmCdiRecord> records = {
      Rec("vm-1", "r0", "az0", 0.1, 0.0, 0.0),
      Rec("vm-2", "r1", "az1", 0.3, 0.0, 0.0),
  };
  records[1].quality.events_shed = 3;
  records[1].quality.Refresh();
  auto result = RunDrilldown(records, {.dimensions = {"region"}});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->groups[0].quality.degraded);
  EXPECT_TRUE(result->groups[1].quality.degraded);
  EXPECT_EQ(result->groups[1].quality.events_shed, 3u);
  EXPECT_TRUE(result->quality.degraded);
}

TEST(DrillDownTest, RejectsBadQueries) {
  std::vector<VmCdiRecord> records = {Rec("vm-1", "r0", "az0", 0.1, 0, 0)};
  EXPECT_TRUE(RunDrilldown(records, {}).status().IsInvalidArgument());
  EXPECT_TRUE(RunDrilldown(records, {.dimensions = {""}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(RunDrilldown(records, {.dimensions = {"region", "region"}})
                  .status()
                  .IsInvalidArgument());
}

EventCdiRecord EvRec(const std::string& vm, const std::string& event,
                     double damage, int64_t service_min = 1440) {
  return EventCdiRecord{.vm_id = vm,
                        .event_name = event,
                        .category = StabilityCategory::kPerformance,
                        .damage_minutes = damage,
                        .service_time = Duration::Minutes(service_min)};
}

TEST(EventLevelCdiTest, NormalizesByFleetServiceTime) {
  // Two VMs with slow_io damage, fleet of 10 VM-days.
  std::vector<EventCdiRecord> records = {EvRec("vm-1", "slow_io", 14.4),
                                         EvRec("vm-2", "slow_io", 14.4),
                                         EvRec("vm-3", "vcpu_high", 144.0)};
  const Duration fleet = Duration::Days(10);
  auto by_event = EventLevelCdi(records, fleet);
  ASSERT_TRUE(by_event.ok());
  EXPECT_NEAR(by_event->at("slow_io"), 28.8 / 14400.0, 1e-12);
  EXPECT_NEAR(by_event->at("vcpu_high"), 0.01, 1e-12);

  auto single = EventLevelCdiFor(records, "slow_io", fleet);
  ASSERT_TRUE(single.ok());
  EXPECT_NEAR(single.value(), 28.8 / 14400.0, 1e-12);
}

TEST(EventLevelCdiTest, ExactAndOrderFreeOverRandomRows) {
  // A row-by-row double sum rounds at every step, so it depends on row
  // order and differs from a sum-then-divide. The exact fold does neither.
  const std::vector<std::string> names = {"slow_io", "packet_loss",
                                          "vcpu_high"};
  const Duration fleet = Duration::Days(137);
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    std::vector<EventCdiRecord> records;
    for (int i = 0; i < 60; ++i) {
      records.push_back(EvRec("vm-" + std::to_string(i),
                              names[rng.UniformInt(0, 2)],
                              rng.Uniform(0.0, 1440.0)));
    }
    const auto by_event = EventLevelCdi(records, fleet).value();
    for (const std::string& name : names) {
      const double single = EventLevelCdiFor(records, name, fleet).value();
      const auto it = by_event.find(name);
      EXPECT_EQ(it == by_event.end() ? 0.0 : it->second, single)
          << name << " seed " << seed;
    }
    rng.Shuffle(records);
    EXPECT_EQ(EventLevelCdi(records, fleet).value(), by_event)
        << "seed " << seed;
  }
}

TEST(EventLevelCdiTest, AbsentEventIsZero) {
  auto v = EventLevelCdiFor({}, "slow_io", Duration::Days(1));
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v.value(), 0.0);
}

TEST(EventLevelCdiTest, RejectsNonPositiveFleetTime) {
  EXPECT_TRUE(
      EventLevelCdi({}, Duration::Zero()).status().IsInvalidArgument());
  EXPECT_TRUE(EventLevelCdiFor({}, "x", Duration::Zero())
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace cdibot
