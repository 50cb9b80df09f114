#include <gtest/gtest.h>

#include "event/period_resolver.h"
#include "event_test_util.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

RawEvent Make(const char* name, const char* time, const char* target = "vm-1",
              Severity level = Severity::kWarning) {
  RawEvent ev;
  ev.name = name;
  ev.time = T(time);
  ev.target = target;
  ev.level = level;
  ev.expire_interval = Duration::Hours(24);
  return ev;
}

class PeriodResolverTest : public ::testing::Test {
 protected:
  PeriodResolverTest()
      : catalog_(EventCatalog::BuiltIn()), resolver_(&catalog_) {}

  StatusOr<std::vector<ResolvedEventView>> ResolveAll(
      const std::vector<RawEvent>& raw,
      std::optional<Interval> bounds = std::nullopt,
      ResolveStats* stats = nullptr) const {
    return testutil::ResolveRaw(resolver_, raw, bounds, stats);
  }

  EventCatalog catalog_;
  PeriodResolver resolver_;
};

TEST_F(PeriodResolverTest, WindowedEventTracesBackOneWindow) {
  // slow_io has a 1-minute window: start = time - 1m (Sec. IV-B1).
  auto out = ResolveAll({Make("slow_io", "2024-01-01 12:17")});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().period.start, T("2024-01-01 12:16"));
  EXPECT_EQ(out->front().period.end, T("2024-01-01 12:17"));
  EXPECT_EQ(out->front().category, StabilityCategory::kPerformance);
}

TEST_F(PeriodResolverTest, ConsecutiveWindowedEventsTileTheEpisode) {
  auto out = ResolveAll({Make("slow_io", "2024-01-01 12:01"),
                         Make("slow_io", "2024-01-01 12:02"),
                         Make("slow_io", "2024-01-01 12:03")});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  // Sorted by time, periods tile [12:00, 12:03).
  EXPECT_EQ((*out)[0].period.start, T("2024-01-01 12:00"));
  EXPECT_EQ((*out)[2].period.end, T("2024-01-01 12:03"));
}

TEST_F(PeriodResolverTest, LoggedDurationUsesAttribute) {
  RawEvent ev = Make("qemu_live_upgrade", "2024-01-01 03:00:10");
  ev.attrs["duration_ms"] = "2500";
  auto out = ResolveAll({ev});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().period.length(), Duration::Millis(2500));
  EXPECT_EQ(out->front().period.end, T("2024-01-01 03:00:10"));
}

TEST_F(PeriodResolverTest, LoggedDurationFallsBackToDefault) {
  auto out = ResolveAll({Make("qemu_live_upgrade", "2024-01-01 03:00")});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().period.length(),
            catalog_.Find("qemu_live_upgrade")->default_duration);
}

// Example 2 of the paper: add at t2 and t3 (t3 redundant), del at t4 and t5
// (t5 redundant) -> one ddos_blackhole event [t2, t4).
TEST_F(PeriodResolverTest, PaperExample2StatefulDedupAndPairing) {
  ResolveStats stats;
  auto out = ResolveAll(
      {Make("ddos_blackhole_add", "2024-01-01 10:02"),   // t2
       Make("ddos_blackhole_add", "2024-01-01 10:03"),   // t3 (dropped)
       Make("ddos_blackhole_del", "2024-01-01 10:04"),   // t4
       Make("ddos_blackhole_del", "2024-01-01 10:05")},  // t5 (dropped)
      std::nullopt, &stats);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(testutil::NameOf(out->front().name_id), "ddos_blackhole");
  EXPECT_EQ(out->front().period.start, T("2024-01-01 10:02"));
  EXPECT_EQ(out->front().period.end, T("2024-01-01 10:04"));
  EXPECT_EQ(stats.duplicate_details_dropped, 2u);
  EXPECT_EQ(stats.resolved, 1u);
}

TEST_F(PeriodResolverTest, StatefulAlternatingPairsResolveSeparately) {
  auto out = ResolveAll({Make("ddos_blackhole_add", "2024-01-01 01:00"),
                         Make("ddos_blackhole_del", "2024-01-01 01:10"),
                         Make("ddos_blackhole_add", "2024-01-01 02:00"),
                         Make("ddos_blackhole_del", "2024-01-01 02:05")});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0].period.length(), Duration::Minutes(10));
  EXPECT_EQ((*out)[1].period.length(), Duration::Minutes(5));
}

TEST_F(PeriodResolverTest, DanglingEndIsDropped) {
  ResolveStats stats;
  auto out = ResolveAll(
      {Make("ddos_blackhole_del", "2024-01-01 01:00")}, std::nullopt, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(stats.dangling_end_dropped, 1u);
}

TEST_F(PeriodResolverTest, UnpairedStartClosesAtExpireOrBounds) {
  ResolveStats stats;
  // No bounds: closes at start + expire_interval (24h for built-in).
  auto out = ResolveAll(
      {Make("ddos_blackhole_add", "2024-01-01 01:00")}, std::nullopt, &stats);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().period.length(), Duration::Hours(24));
  EXPECT_EQ(stats.unpaired_start_closed, 1u);

  // With bounds: closes at the bounds end.
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  out = ResolveAll({Make("ddos_blackhole_add", "2024-01-01 20:00")},
                   day, &stats);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().period.end, day.end);
}

TEST_F(PeriodResolverTest, UnknownEventsAreCountedAndDropped) {
  ResolveStats stats;
  auto out = ResolveAll({Make("mystery_event", "2024-01-01 01:00")},
                        std::nullopt, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(stats.unknown_dropped, 1u);
}

TEST_F(PeriodResolverTest, BoundsClampAndDropOutside) {
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  auto out = ResolveAll(
      {
          Make("slow_io", "2024-01-01 00:00:30"),  // straddles day start
          Make("slow_io", "2023-12-31 23:00"),     // fully before
          Make("slow_io", "2024-01-01 12:00"),     // inside
      },
      day);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0].period.start, day.start);  // clamped
  EXPECT_EQ((*out)[0].period.length(), Duration::Seconds(30));
}

TEST_F(PeriodResolverTest, TargetsAreIndependentForStatefulPairing) {
  auto out = ResolveAll({
      Make("ddos_blackhole_add", "2024-01-01 01:00", "vm-1"),
      Make("ddos_blackhole_add", "2024-01-01 01:05", "vm-2"),
      Make("ddos_blackhole_del", "2024-01-01 01:10", "vm-1"),
      Make("ddos_blackhole_del", "2024-01-01 01:20", "vm-2"),
  });
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  for (const ResolvedEventView& ev : *out) {
    if (testutil::NameOf(ev.target_id) == "vm-1") {
      EXPECT_EQ(ev.period.length(), Duration::Minutes(10));
    } else {
      EXPECT_EQ(ev.period.length(), Duration::Minutes(15));
    }
  }
}

TEST_F(PeriodResolverTest, SeverityOfStartDetailIsKept) {
  auto out = ResolveAll(
      {Make("ddos_blackhole_add", "2024-01-01 01:00", "vm-1",
            Severity::kFatal),
       Make("ddos_blackhole_del", "2024-01-01 01:10", "vm-1",
            Severity::kInfo)});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().level, Severity::kFatal);
}

TEST_F(PeriodResolverTest, EmptyInputYieldsEmptyOutput) {
  auto out = ResolveAll({});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

}  // namespace
}  // namespace cdibot
