#include <gtest/gtest.h>

#include "cdi/customer_indicator.h"
#include "event_test_util.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

ResolvedEventView Res(const char* name, const char* start, const char* end,
                      StabilityCategory cat,
                      Severity level = Severity::kCritical) {
  return testutil::Resolved(name, Interval(T(start), T(end)), cat, level);
}

EventWeightModel MakeModel() {
  auto ticket = TicketRankModel::FromCounts(
      {{"slow_io", 100}, {"vm_allocation_failed", 50},
       {"inspect_cpu_power_tdp", 10}, {"vm_crash", 200}},
      4);
  return EventWeightModel::Build(std::move(ticket).value(), {}).value();
}

TEST(CustomerFilterTest, BuiltInDisclosureChoices) {
  const CustomerEventFilter filter = CustomerEventFilter::BuiltIn();
  // Customer-visible symptoms.
  EXPECT_TRUE(filter.IsDisclosed("vm_crash"));
  EXPECT_TRUE(filter.IsDisclosed("slow_io"));
  EXPECT_TRUE(filter.IsDisclosed("vm_start_failed"));
  // Internal inspection events are hidden.
  EXPECT_FALSE(filter.IsDisclosed("inspect_cpu_power_tdp"));
  EXPECT_FALSE(filter.IsDisclosed("vm_allocation_failed"));
  EXPECT_FALSE(filter.IsDisclosed("nic_flapping"));
  EXPECT_FALSE(filter.IsDisclosed("qemu_live_upgrade"));
}

TEST(CustomerFilterTest, FilterKeepsOnlyDisclosed) {
  const CustomerEventFilter filter = CustomerEventFilter::BuiltIn();
  auto filtered = filter.Filter({
      Res("slow_io", "2024-01-01 01:00", "2024-01-01 01:10",
          StabilityCategory::kPerformance),
      Res("inspect_cpu_power_tdp", "2024-01-01 02:00", "2024-01-01 02:30",
          StabilityCategory::kPerformance),
  });
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(testutil::NameOf(filtered[0].name_id), "slow_io");
}

TEST(CustomerIndicatorTest, CpiIsLowerBoundOfCdi) {
  const CustomerEventFilter filter = CustomerEventFilter::BuiltIn();
  const EventWeightModel model = MakeModel();
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  const std::vector<ResolvedEventView> events = {
      Res("vm_crash", "2024-01-01 01:00", "2024-01-01 01:30",
          StabilityCategory::kUnavailability, Severity::kFatal),
      Res("slow_io", "2024-01-01 02:00", "2024-01-01 04:00",
          StabilityCategory::kPerformance),
      Res("vm_allocation_failed", "2024-01-01 06:00", "2024-01-01 12:00",
          StabilityCategory::kPerformance),
      Res("inspect_cpu_power_tdp", "2024-01-01 13:00", "2024-01-01 14:00",
          StabilityCategory::kPerformance, Severity::kWarning),
  };
  auto cmp = CompareCdiAndCpi(events, model, filter, day);
  ASSERT_TRUE(cmp.ok());
  EXPECT_LE(cmp->customer.unavailability, cmp->internal.unavailability);
  EXPECT_LE(cmp->customer.performance, cmp->internal.performance);
  EXPECT_LE(cmp->customer.control_plane, cmp->internal.control_plane);
  EXPECT_GE(cmp->HiddenPerformance(), 0.0);
  // The 6h allocation failure and 1h TDP event are hidden; the customer
  // only sees the 2h slow_io.
  EXPECT_GT(cmp->HiddenPerformance(), 0.0);
  // Unavailability (vm_crash) is fully disclosed.
  EXPECT_DOUBLE_EQ(cmp->HiddenUnavailability(), 0.0);
}

TEST(CustomerIndicatorTest, DisclosedOnlyEventsGiveEqualPerspectives) {
  const CustomerEventFilter filter = CustomerEventFilter::BuiltIn();
  const EventWeightModel model = MakeModel();
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  const std::vector<ResolvedEventView> events = {
      Res("slow_io", "2024-01-01 02:00", "2024-01-01 04:00",
          StabilityCategory::kPerformance),
  };
  auto cmp = CompareCdiAndCpi(events, model, filter, day);
  ASSERT_TRUE(cmp.ok());
  EXPECT_DOUBLE_EQ(cmp->internal.performance, cmp->customer.performance);
}

TEST(CustomerIndicatorTest, CustomDisclosureSet) {
  const CustomerEventFilter filter({"slow_io"});
  EXPECT_TRUE(filter.IsDisclosed("slow_io"));
  EXPECT_FALSE(filter.IsDisclosed("vm_crash"));
  EXPECT_EQ(filter.disclosed_events().size(), 1u);
}

TEST(CustomerIndicatorTest, OverlapHidingIsExact) {
  // Hidden event fully overlapped by a disclosed one with a higher weight:
  // the customer perspective loses nothing.
  const CustomerEventFilter filter = CustomerEventFilter::BuiltIn();
  const EventWeightModel model = MakeModel();
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  const std::vector<ResolvedEventView> events = {
      // slow_io: critical + top tickets -> high weight, whole window.
      Res("slow_io", "2024-01-01 02:00", "2024-01-01 04:00",
          StabilityCategory::kPerformance, Severity::kFatal),
      // Hidden low-weight TDP event inside the same window.
      Res("inspect_cpu_power_tdp", "2024-01-01 02:30", "2024-01-01 03:00",
          StabilityCategory::kPerformance, Severity::kInfo),
  };
  auto cmp = CompareCdiAndCpi(events, model, filter, day);
  ASSERT_TRUE(cmp.ok());
  EXPECT_DOUBLE_EQ(cmp->HiddenPerformance(), 0.0);
}

}  // namespace
}  // namespace cdibot
