#include <gtest/gtest.h>

#include "cdi/baselines.h"
#include "event_test_util.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

ResolvedEventView U(const char* start, const char* end) {
  return testutil::Resolved("vm_crash", Interval(T(start), T(end)),
                            StabilityCategory::kUnavailability,
                            Severity::kFatal);
}

ResolvedEventView P(const char* start, const char* end) {
  return testutil::Resolved("slow_io", Interval(T(start), T(end)),
                            StabilityCategory::kPerformance,
                            Severity::kCritical);
}

TEST(BaselinesTest, NoEventsMeansPerfectAvailability) {
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  auto stats =
      ComputeUnavailabilityStats(std::vector<ResolvedEventView>{}, day);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->downtime_percentage, 0.0);
  EXPECT_DOUBLE_EQ(stats->annual_interruption_rate, 0.0);
  EXPECT_EQ(stats->interruption_count, 0u);
  EXPECT_EQ(stats->mtbf, Duration::Days(1));
  EXPECT_EQ(stats->mttr, Duration::Zero());
}

TEST(BaselinesTest, SingleEpisodeMetrics) {
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  // 72 minutes down = 5% of the day.
  auto stats = ComputeUnavailabilityStats(
      {U("2024-01-01 10:00", "2024-01-01 11:12")}, day);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->downtime_percentage, 0.05, 1e-12);
  EXPECT_EQ(stats->interruption_count, 1u);
  EXPECT_EQ(stats->downtime, Duration::Minutes(72));
  // One interruption in one day -> 365 per service-year.
  EXPECT_NEAR(stats->annual_interruption_rate, 365.0, 1e-9);
  EXPECT_EQ(stats->mttr, Duration::Minutes(72));
}

TEST(BaselinesTest, OverlappingAndTouchingEpisodesMerge) {
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  auto stats = ComputeUnavailabilityStats(
      {U("2024-01-01 10:00", "2024-01-01 10:30"),
       U("2024-01-01 10:20", "2024-01-01 10:50"),   // overlaps
       U("2024-01-01 10:50", "2024-01-01 11:00"),   // touches
       U("2024-01-01 15:00", "2024-01-01 15:10")},  // separate
      day);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->interruption_count, 2u);
  EXPECT_EQ(stats->downtime, Duration::Minutes(70));
}

TEST(BaselinesTest, PerformanceEventsAreInvisible) {
  // The paper's core claim: DP/AIR cannot see performance damage.
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  auto stats = ComputeUnavailabilityStats(
      {P("2024-01-01 08:00", "2024-01-01 20:00")}, day);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->downtime_percentage, 0.0);
  EXPECT_EQ(stats->interruption_count, 0u);
}

TEST(BaselinesTest, EventsClampIntoServicePeriod) {
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  auto stats = ComputeUnavailabilityStats(
      {U("2023-12-31 23:30", "2024-01-01 00:30")}, day);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->downtime, Duration::Minutes(30));
}

TEST(BaselinesTest, EmptyServicePeriodFails) {
  const Interval empty(T("2024-01-01 00:00"), T("2024-01-01 00:00"));
  EXPECT_TRUE(
      ComputeUnavailabilityStats(std::vector<ResolvedEventView>{}, empty)
          .status()
          .IsInvalidArgument());
}

TEST(BaselinesTest, MtbfSplitsServiceTimeAcrossEpisodes) {
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  auto stats = ComputeUnavailabilityStats(
      {U("2024-01-01 06:00", "2024-01-01 06:10"),
       U("2024-01-01 18:00", "2024-01-01 18:20")},
      day);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->mtbf, Duration::Hours(12));
  EXPECT_EQ(stats->mttr, Duration::Minutes(15));
}

TEST(BaselinesTest, FleetAggregation) {
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  auto a = ComputeUnavailabilityStats({U("2024-01-01 00:00",
                                         "2024-01-01 02:24")},
                                      day)
               .value();  // 10% of one day
  auto b =
      ComputeUnavailabilityStats(std::vector<ResolvedEventView>{}, day).value();
  UnavailabilityPartial partial;
  partial.AddVm(a, Duration::Days(1));
  partial.AddVm(b, Duration::Days(1));
  const UnavailabilityStats fleet = partial.Finalize();
  EXPECT_NEAR(fleet.downtime_percentage, 0.05, 1e-12);
  EXPECT_EQ(fleet.interruption_count, 1u);
  // One interruption over 2 VM-days -> 182.5 per VM-year.
  EXPECT_NEAR(fleet.annual_interruption_rate, 182.5, 1e-9);
}

}  // namespace
}  // namespace cdibot
