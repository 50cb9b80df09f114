#include <gtest/gtest.h>

#include "cdi/indicator.h"
#include "common/rng.h"
#include "event_test_util.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

WeightedEventView Ev(const char* start, const char* end, double w,
                     const char* name = "e") {
  return testutil::Weighted(Interval(T(start), T(end)), w,
                            StabilityCategory::kPerformance, name);
}

TEST(ComputeCdiTest, NoEventsIsZero) {
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  EXPECT_DOUBLE_EQ(ComputeCdi(std::vector<WeightedEventView>{}, day).value(),
                   0.0);
}

TEST(ComputeCdiTest, SingleEventRatio) {
  // 6 minutes of weight 0.5 in an hour: 3/60 = 0.05.
  const Interval hour(T("2024-01-01 10:00"), T("2024-01-01 11:00"));
  auto q = ComputeCdi({Ev("2024-01-01 10:10", "2024-01-01 10:16", 0.5)}, hour);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q.value(), 0.05);
}

TEST(ComputeCdiTest, OverlapTakesMaxWeight) {
  // Two fully-overlapping 10-minute events, weights 0.3 and 0.8, in 100
  // minutes: damage = 10 * 0.8 -> 0.08.
  const Interval window(T("2024-01-01 00:00"), T("2024-01-01 01:40"));
  auto q = ComputeCdi({Ev("2024-01-01 00:10", "2024-01-01 00:20", 0.3),
                       Ev("2024-01-01 00:10", "2024-01-01 00:20", 0.8)},
                      window);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q.value(), 0.08);
}

TEST(ComputeCdiTest, PartialOverlapSegmentsCorrectly) {
  // [0,20) w=0.5 and [10,30) w=1.0 in 100 min: 10*0.5 + 20*1.0 = 25 -> 0.25.
  const Interval window(T("2024-01-01 00:00"), T("2024-01-01 01:40"));
  auto q = ComputeCdi({Ev("2024-01-01 00:00", "2024-01-01 00:20", 0.5),
                       Ev("2024-01-01 00:10", "2024-01-01 00:30", 1.0)},
                      window);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q.value(), 0.25);
}

// Table IV, VM 1: two non-overlapping packet_loss events, 2 min each,
// w = 0.3, service 60 min -> Q = 1.2 / 60 = 0.020.
TEST(ComputeCdiTest, PaperTable4Vm1) {
  const Interval hour(T("2024-01-01 10:00"), T("2024-01-01 11:00"));
  auto q = ComputeCdi(
      {Ev("2024-01-01 10:08", "2024-01-01 10:10", 0.3, "packet_loss"),
       Ev("2024-01-01 10:10", "2024-01-01 10:12", 0.3, "packet_loss")},
      hour);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q.value(), 0.020);
}

// Table IV, VM 2: one 5-min vcpu_high, w = 0.6, service 1440 min
// -> Q = 3 / 1440 ~= 0.002.
TEST(ComputeCdiTest, PaperTable4Vm2) {
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  auto q = ComputeCdi(
      {Ev("2024-01-01 13:25", "2024-01-01 13:30", 0.6, "vcpu_high")}, day);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q.value(), 5.0 * 0.6 / 1440.0);
  EXPECT_NEAR(q.value(), 0.002, 1e-4);
}

// Table IV, VM 3: slow_io 08:08-08:10 and 08:10-08:12 (w=0.5), vcpu_high
// 08:10-08:15 (w=0.6); overlap 08:10-08:12 takes 0.6. Service 1000 min
// -> Q = (2*0.5 + 2*0.6 + 3*0.6) / 1000 = 0.004.
TEST(ComputeCdiTest, PaperTable4Vm3) {
  const Interval service(T("2024-01-01 08:00"),
                         T("2024-01-01 08:00") + Duration::Minutes(1000));
  auto q = ComputeCdi(
      {Ev("2024-01-01 08:08", "2024-01-01 08:10", 0.5, "slow_io"),
       Ev("2024-01-01 08:10", "2024-01-01 08:12", 0.5, "slow_io"),
       Ev("2024-01-01 08:10", "2024-01-01 08:15", 0.6, "vcpu_high")},
      service);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q.value(), 0.004);
}

TEST(ComputeCdiTest, EventsClampToServicePeriod) {
  const Interval hour(T("2024-01-01 10:00"), T("2024-01-01 11:00"));
  // Event straddles the start: only 5 minutes count.
  auto q = ComputeCdi({Ev("2024-01-01 09:50", "2024-01-01 10:05", 1.0)}, hour);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q.value(), 5.0 / 60.0);
  // Fully outside: zero.
  q = ComputeCdi({Ev("2024-01-01 08:00", "2024-01-01 09:00", 1.0)}, hour);
  EXPECT_DOUBLE_EQ(q.value(), 0.0);
}

TEST(ComputeCdiTest, FullCoverageAtWeightOneIsOne) {
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  auto q = ComputeCdi({Ev("2023-12-31 00:00", "2024-01-03 00:00", 1.0)}, day);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q.value(), 1.0);
}

TEST(ComputeCdiTest, ValidationErrors) {
  const Interval empty(T("2024-01-01 10:00"), T("2024-01-01 10:00"));
  EXPECT_TRUE(ComputeCdi(std::vector<WeightedEventView>{}, empty)
                  .status()
                  .IsInvalidArgument());
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  EXPECT_TRUE(
      ComputeCdi({Ev("2024-01-01 01:00", "2024-01-01 02:00", -0.1)}, day)
          .status()
          .IsInvalidArgument());
}

TEST(ComputeDamageMinutesTest, ReturnsNumeratorInMinutes) {
  const Interval hour(T("2024-01-01 10:00"), T("2024-01-01 11:00"));
  auto d = ComputeDamageMinutes(
      {Ev("2024-01-01 10:00", "2024-01-01 10:10", 0.5)}, hour);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value(), 5.0);
}

TEST(ComputeCdiNaiveTest, MatchesSweepOnMinuteAlignedEvents) {
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  const std::vector<WeightedEventView> events = {
      Ev("2024-01-01 01:00", "2024-01-01 01:30", 0.4),
      Ev("2024-01-01 01:15", "2024-01-01 02:00", 0.9),
      Ev("2024-01-01 23:00", "2024-01-02 00:00", 0.2),
  };
  EXPECT_NEAR(ComputeCdiNaive(events, day).value(),
              ComputeCdi(events, day).value(), 1e-12);
}

TEST(ComputeCdiSumOverlapTest, SumsAndCapsAtOne) {
  const Interval window(T("2024-01-01 00:00"), T("2024-01-01 01:40"));
  // Two overlapping weights 0.7 + 0.7 capped at 1.0 for 10 minutes.
  auto q = ComputeCdiSumOverlap(
      {Ev("2024-01-01 00:00", "2024-01-01 00:10", 0.7),
       Ev("2024-01-01 00:00", "2024-01-01 00:10", 0.7)},
      window);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q.value(), 10.0 / 100.0);
  // Sum-overlap dominates max-overlap.
  auto qmax = ComputeCdi({Ev("2024-01-01 00:00", "2024-01-01 00:10", 0.7),
                          Ev("2024-01-01 00:00", "2024-01-01 00:10", 0.7)},
                         window);
  EXPECT_GE(q.value(), qmax.value());
}

// Property sweep: random event sets agree between the production sweep and
// the literal pseudo-code, and stay within [0, max_weight].
class CdiPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CdiPropertyTest, SweepMatchesNaiveAndStaysBounded) {
  Rng rng(GetParam());
  const Interval day(T("2024-03-01 00:00"), T("2024-03-02 00:00"));
  std::vector<WeightedEventView> events;
  const int n = static_cast<int>(rng.UniformInt(0, 40));
  double max_w = 0.0;
  for (int i = 0; i < n; ++i) {
    // Minute-aligned events so the naive grid agrees exactly.
    const int64_t start_min = rng.UniformInt(0, 1380);
    const int64_t len_min = rng.UniformInt(1, 59);
    const double w = rng.Uniform(0.0, 1.0);
    max_w = std::max(max_w, w);
    events.push_back(testutil::Weighted(
        Interval(day.start + Duration::Minutes(start_min),
                 day.start + Duration::Minutes(start_min + len_min)),
        w));
  }
  auto sweep = ComputeCdi(events, day);
  auto naive = ComputeCdiNaive(events, day);
  ASSERT_TRUE(sweep.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_NEAR(sweep.value(), naive.value(), 1e-9);
  EXPECT_GE(sweep.value(), 0.0);
  EXPECT_LE(sweep.value(), max_w + 1e-12);
  // Max-overlap never exceeds sum-overlap.
  auto sum = ComputeCdiSumOverlap(events, day);
  ASSERT_TRUE(sum.ok());
  EXPECT_LE(sweep.value(), sum.value() + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, CdiPropertyTest,
                         ::testing::Range<uint64_t>(1, 33));

TEST(ComputeCdiTest, ManyTouchingEventsEqualOneSpanningEvent) {
  // Tiling invariance: N adjacent windows with equal weight == one event.
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  std::vector<WeightedEventView> tiled;
  for (int i = 0; i < 60; ++i) {
    tiled.push_back(testutil::Weighted(
        Interval(day.start + Duration::Minutes(i),
                 day.start + Duration::Minutes(i + 1)),
        0.5));
  }
  const std::vector<WeightedEventView> spanning = {testutil::Weighted(
      Interval(day.start, day.start + Duration::Minutes(60)), 0.5)};
  EXPECT_NEAR(ComputeCdi(tiled, day).value(),
              ComputeCdi(spanning, day).value(), 1e-12);
}

}  // namespace
}  // namespace cdibot
