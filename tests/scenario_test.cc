#include <gtest/gtest.h>

#include "event/period_resolver.h"
#include "event_test_util.h"
#include "sim/scenario.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

class ScenarioTest : public ::testing::Test {
 protected:
  ScenarioTest()
      : catalog_(EventCatalog::BuiltIn()),
        rng_(99),
        injector_(&catalog_, &rng_) {}

  EventCatalog catalog_;
  Rng rng_;
  FaultInjector injector_;
  EventLog log_;
};

TEST_F(ScenarioTest, WindowedEpisodeTilesPeriod) {
  const Interval episode(T("2024-01-01 10:00"), T("2024-01-01 10:05"));
  ASSERT_TRUE(injector_.InjectEpisode("vm-1", "slow_io", episode, &log_).ok());
  // 5 whole minutes -> 5 raw events at window ends.
  EXPECT_EQ(log_.size(), 5u);
  // Resolving recovers the full episode.
  PeriodResolver resolver(&catalog_);
  auto resolved = testutil::ResolveRaw(
      resolver,
      log_.Search(Interval(T("2024-01-01 00:00"), T("2024-01-02 00:00"))));
  ASSERT_TRUE(resolved.ok());
  Duration total;
  for (const ResolvedEventView& ev : *resolved) total += ev.period.length();
  EXPECT_EQ(total, Duration::Minutes(5));
}

TEST_F(ScenarioTest, WindowedEpisodeWithPartialWindow) {
  const Interval episode(T("2024-01-01 10:00"), T("2024-01-01 10:02:30"));
  ASSERT_TRUE(injector_.InjectEpisode("vm-1", "slow_io", episode, &log_).ok());
  // 2 full windows + 1 partial event at the episode end.
  EXPECT_EQ(log_.size(), 3u);
}

TEST_F(ScenarioTest, LoggedDurationEpisodeSingleEvent) {
  const Interval episode(T("2024-01-01 03:00"),
                         T("2024-01-01 03:00") + Duration::Millis(800));
  ASSERT_TRUE(
      injector_.InjectEpisode("vm-1", "qemu_live_upgrade", episode, &log_)
          .ok());
  ASSERT_EQ(log_.size(), 1u);
  auto events =
      log_.Search(Interval(T("2024-01-01 00:00"), T("2024-01-02 00:00")));
  EXPECT_EQ(events[0].LoggedDuration()->millis(), 800);
}

TEST_F(ScenarioTest, StatefulEpisodeEmitsPair) {
  const Interval episode(T("2024-01-01 10:00"), T("2024-01-01 11:00"));
  ASSERT_TRUE(
      injector_.InjectEpisode("vm-1", "ddos_blackhole", episode, &log_).ok());
  auto events =
      log_.Search(Interval(T("2024-01-01 00:00"), T("2024-01-02 00:00")));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "ddos_blackhole_add");
  EXPECT_EQ(events[1].name, "ddos_blackhole_del");
}

TEST_F(ScenarioTest, InjectEpisodeValidation) {
  const Interval empty(T("2024-01-01 10:00"), T("2024-01-01 10:00"));
  EXPECT_TRUE(
      injector_.InjectEpisode("vm-1", "slow_io", empty, &log_)
          .IsInvalidArgument());
  const Interval ok(T("2024-01-01 10:00"), T("2024-01-01 10:01"));
  EXPECT_TRUE(
      injector_.InjectEpisode("vm-1", "made_up", ok, &log_).IsNotFound());
}

TEST_F(ScenarioTest, SeverityOverride) {
  const Interval episode(T("2024-01-01 10:00"), T("2024-01-01 10:01"));
  ASSERT_TRUE(injector_
                  .InjectEpisode("vm-1", "packet_loss", episode, &log_,
                                 Severity::kFatal)
                  .ok());
  auto events =
      log_.Search(Interval(T("2024-01-01 00:00"), T("2024-01-02 00:00")));
  EXPECT_EQ(events[0].level, Severity::kFatal);
}

TEST_F(ScenarioTest, InjectDayVolumeScalesWithRates) {
  auto fleet = Fleet::Build(FleetSpec{}).value();
  const TimePoint day = T("2024-01-01 00:00");
  auto low = injector_.InjectDay(fleet, day, BaselineRates(), &log_);
  ASSERT_TRUE(low.ok());
  EventLog log2;
  auto high =
      injector_.InjectDay(fleet, day, BaselineRates().Scaled(10.0), &log2);
  ASSERT_TRUE(high.ok());
  EXPECT_GT(high.value(), low.value() * 4);
}

TEST_F(ScenarioTest, InjectDayWhereOnlyTouchesMatchingVms) {
  FleetSpec spec;
  spec.hybrid_fraction = 0.5;
  auto fleet = Fleet::Build(spec).value();
  FaultRates rates;
  rates.episodes_per_vm_day["vcpu_high"] = 2.0;
  ASSERT_TRUE(injector_
                  .InjectDayWhere(fleet, T("2024-01-01 00:00"), rates, "arch",
                                  "hybrid", &log_)
                  .ok());
  const Interval day(T("2024-01-01 00:00"), T("2024-01-02 00:00"));
  for (const RawEvent& ev : log_.Search(day)) {
    const auto dims = fleet.topology().DimsForVm(ev.target);
    ASSERT_TRUE(dims.ok());
    EXPECT_EQ(dims->at("arch"), "hybrid");
  }
}

TEST_F(ScenarioTest, ScaledRatesMultiply) {
  FaultRates rates;
  rates.episodes_per_vm_day = {{"a", 0.5}, {"b", 2.0}};
  const FaultRates scaled = rates.Scaled(3.0);
  EXPECT_DOUBLE_EQ(scaled.episodes_per_vm_day.at("a"), 1.5);
  EXPECT_DOUBLE_EQ(scaled.episodes_per_vm_day.at("b"), 6.0);
}

TEST_F(ScenarioTest, BaselineRatesCoverAllCategories) {
  const FaultRates rates = BaselineRates();
  bool has_u = false, has_p = false, has_c = false;
  for (const auto& [name, rate] : rates.episodes_per_vm_day) {
    EXPECT_GT(rate, 0.0);
    const auto spec = catalog_.Find(name);
    ASSERT_TRUE(spec.ok()) << name;
    switch (spec->category) {
      case StabilityCategory::kUnavailability:
        has_u = true;
        break;
      case StabilityCategory::kPerformance:
        has_p = true;
        break;
      case StabilityCategory::kControlPlane:
        has_c = true;
        break;
    }
  }
  EXPECT_TRUE(has_u);
  EXPECT_TRUE(has_p);
  EXPECT_TRUE(has_c);
}

}  // namespace
}  // namespace cdibot
