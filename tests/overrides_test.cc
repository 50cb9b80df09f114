#include <gtest/gtest.h>

#include "event/overrides.h"
#include "event/period_resolver.h"
#include "event_test_util.h"
#include "storage/catalog_config.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

TEST(OverridesTest, AppliesLevelWindowAndExpire) {
  const EventCatalog base = EventCatalog::BuiltIn();
  // Sec. VIII-A's Redis scenario: packet_loss is more severe for this
  // workload, and detection uses a finer window.
  auto adjusted = ApplyOverrides(
      base, {EventOverride{.event_name = "packet_loss",
                           .level = Severity::kCritical,
                           .window = Duration::Seconds(30),
                           .expire_interval = Duration::Hours(2)}});
  ASSERT_TRUE(adjusted.ok()) << adjusted.status().ToString();
  const EventSpec spec = adjusted->Find("packet_loss").value();
  EXPECT_EQ(spec.default_level, Severity::kCritical);
  EXPECT_EQ(spec.window, Duration::Seconds(30));
  EXPECT_EQ(spec.expire_interval, Duration::Hours(2));
  // Everything else is untouched.
  EXPECT_EQ(adjusted->Find("slow_io").value().window,
            base.Find("slow_io").value().window);
  EXPECT_EQ(adjusted->specs().size(), base.specs().size());
}

TEST(OverridesTest, Validation) {
  const EventCatalog base = EventCatalog::BuiltIn();
  EXPECT_TRUE(ApplyOverrides(base, {EventOverride{.event_name = "nope"}})
                  .status()
                  .IsNotFound());
  // Window override on a logged-duration event is meaningless.
  EXPECT_TRUE(ApplyOverrides(base,
                             {EventOverride{.event_name = "qemu_live_upgrade",
                                            .window = Duration::Minutes(1)}})
                  .status()
                  .IsInvalidArgument());
  // Detail names cannot be targeted.
  EXPECT_TRUE(ApplyOverrides(base,
                             {EventOverride{.event_name =
                                                "ddos_blackhole_add",
                                            .level = Severity::kFatal}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ApplyOverrides(base,
                             {EventOverride{.event_name = "packet_loss",
                                            .window = Duration::Zero()}})
                  .status()
                  .IsInvalidArgument());
}

TEST(OverridesTest, AdjustedCatalogDrivesResolution) {
  const EventCatalog base = EventCatalog::BuiltIn();
  auto adjusted =
      ApplyOverrides(base, {EventOverride{.event_name = "packet_loss",
                                          .window = Duration::Minutes(5)}})
          .value();
  PeriodResolver resolver(&adjusted);
  RawEvent ev;
  ev.name = "packet_loss";
  ev.time = T("2024-01-01 12:05");
  ev.target = "redis-vm";
  ev.expire_interval = Duration::Hours(24);
  auto resolved = testutil::ResolveRaw(resolver, {ev});
  ASSERT_TRUE(resolved.ok());
  ASSERT_EQ(resolved->size(), 1u);
  EXPECT_EQ(resolved->front().period.length(), Duration::Minutes(5));
}

TEST(CatalogConfigTest, LoadsFromConfigStore) {
  ConfigStore config;
  config.Set("catalog/packet_loss/level", "critical");
  config.SetInt("catalog/packet_loss/window_ms", 30000);
  config.SetInt("catalog/slow_io/expire_ms", 7200000);
  config.Set("unrelated/key", "ignored");

  auto overrides = LoadOverridesFromConfig(config);
  ASSERT_TRUE(overrides.ok()) << overrides.status().ToString();
  ASSERT_EQ(overrides->size(), 2u);

  auto adjusted = ApplyOverrides(EventCatalog::BuiltIn(), *overrides);
  ASSERT_TRUE(adjusted.ok());
  EXPECT_EQ(adjusted->Find("packet_loss").value().default_level,
            Severity::kCritical);
  EXPECT_EQ(adjusted->Find("packet_loss").value().window,
            Duration::Seconds(30));
  EXPECT_EQ(adjusted->Find("slow_io").value().expire_interval,
            Duration::Hours(2));
}

TEST(CatalogConfigTest, BadValuesFail) {
  ConfigStore config;
  config.Set("catalog/packet_loss/level", "severe");  // not a severity
  EXPECT_TRUE(LoadOverridesFromConfig(config).status().IsInvalidArgument());

  ConfigStore config2;
  config2.Set("catalog/packet_loss/window_ms", "abc");
  EXPECT_TRUE(LoadOverridesFromConfig(config2).status().IsInvalidArgument());

  ConfigStore config3;
  config3.Set("catalog/packet_loss/unknown_field", "1");
  EXPECT_TRUE(LoadOverridesFromConfig(config3).status().IsInvalidArgument());

  ConfigStore config4;
  config4.Set("catalog/too/many/parts", "1");
  EXPECT_TRUE(LoadOverridesFromConfig(config4).status().IsInvalidArgument());
}

}  // namespace
}  // namespace cdibot
