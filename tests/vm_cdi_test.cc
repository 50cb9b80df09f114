#include <gtest/gtest.h>

#include "cdi/vm_cdi.h"
#include "event_test_util.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

ResolvedEventView Res(const char* name, const char* start, const char* end,
                      Severity level, StabilityCategory cat) {
  return testutil::Resolved(name, Interval(T(start), T(end)), cat, level);
}

EventWeightModel MakeModel() {
  auto ticket = TicketRankModel::FromCounts(
      {{"slow_io", 100}, {"packet_loss", 50}, {"vm_start_failed", 10},
       {"vm_crash", 200}},
      4);
  auto model = EventWeightModel::Build(std::move(ticket).value(), {});
  return std::move(model).value();
}

// Weights then computes, as the per-VM pipeline does.
StatusOr<VmCdi> WeighAndCompute(const std::vector<ResolvedEventView>& events,
                                const EventWeightModel& model,
                                const Interval& service_period) {
  CDIBOT_ASSIGN_OR_RETURN(const std::vector<WeightedEventView> weighted,
                          AttachWeights(events, model));
  return ComputeVmCdi(weighted, service_period);
}

TEST(AttachWeightsTest, MapsWeightsPerEvent) {
  EventWeightModel model = MakeModel();
  auto weighted = AttachWeights(
      {Res("vm_crash", "2024-01-01 01:00", "2024-01-01 01:10",
           Severity::kFatal, StabilityCategory::kUnavailability),
       Res("slow_io", "2024-01-01 02:00", "2024-01-01 02:10",
           Severity::kCritical, StabilityCategory::kPerformance)},
      model);
  ASSERT_TRUE(weighted.ok());
  ASSERT_EQ(weighted->size(), 2u);
  EXPECT_DOUBLE_EQ((*weighted)[0].weight, 1.0);  // unavailability
  // slow_io: l = 0.75; ticket rank 3rd of 4 -> p = 0.75 -> w = 0.75.
  EXPECT_DOUBLE_EQ((*weighted)[1].weight, 0.75);
  EXPECT_EQ(testutil::NameOf((*weighted)[1].name_id), "slow_io");
}

TEST(ComputeVmCdiTest, SplitsByCategory) {
  EventWeightModel model = MakeModel();
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  // 144 minutes of unavailability = 10% of the day.
  auto cdi = WeighAndCompute(
      {Res("vm_crash", "2024-01-01 00:00", "2024-01-01 02:24",
           Severity::kFatal, StabilityCategory::kUnavailability),
       Res("slow_io", "2024-01-01 10:00", "2024-01-01 10:10",
           Severity::kCritical, StabilityCategory::kPerformance),
       Res("vm_start_failed", "2024-01-01 12:00", "2024-01-01 12:05",
           Severity::kCritical, StabilityCategory::kControlPlane)},
      model, day);
  ASSERT_TRUE(cdi.ok());
  EXPECT_NEAR(cdi->unavailability, 0.1, 1e-12);
  // slow_io w = 0.75 over 10 of 1440 minutes.
  EXPECT_NEAR(cdi->performance, 0.75 * 10.0 / 1440.0, 1e-12);
  // vm_start_failed: l = 0.75, ticket rank 1/4 -> p = 0.25 -> w = 0.5.
  EXPECT_NEAR(cdi->control_plane, 0.5 * 5.0 / 1440.0, 1e-12);
  EXPECT_EQ(cdi->service_time, Duration::Days(1));
}

TEST(ComputeVmCdiTest, CategoriesDoNotLeakIntoEachOther) {
  EventWeightModel model = MakeModel();
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  auto cdi = WeighAndCompute(
      {Res("slow_io", "2024-01-01 00:00", "2024-01-02 00:00",
           Severity::kFatal, StabilityCategory::kPerformance)},
      model, day);
  ASSERT_TRUE(cdi.ok());
  EXPECT_DOUBLE_EQ(cdi->unavailability, 0.0);
  EXPECT_GT(cdi->performance, 0.0);
  EXPECT_DOUBLE_EQ(cdi->control_plane, 0.0);
}

TEST(ComputeVmCdiTest, EmptyServicePeriodFails) {
  EventWeightModel model = MakeModel();
  const Interval empty(T("2024-01-01 00:00"), T("2024-01-01 00:00"));
  EXPECT_TRUE(ComputeVmCdi(std::vector<WeightedEventView>{}, empty)
                  .status()
                  .IsInvalidArgument());
  (void)model;
}

TEST(VmCdiTest, ForCategoryAccessor) {
  VmCdi cdi{.unavailability = 0.1, .performance = 0.2, .control_plane = 0.3};
  EXPECT_DOUBLE_EQ(cdi.ForCategory(StabilityCategory::kUnavailability), 0.1);
  EXPECT_DOUBLE_EQ(cdi.ForCategory(StabilityCategory::kPerformance), 0.2);
  EXPECT_DOUBLE_EQ(cdi.ForCategory(StabilityCategory::kControlPlane), 0.3);
}

}  // namespace
}  // namespace cdibot
