#include <gtest/gtest.h>

#include "event_test_util.h"
#include "ops/prioritizer.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

ResolvedEventView Res(const char* name, Severity level,
                      StabilityCategory cat) {
  return testutil::Resolved(
      name, Interval(T("2024-01-01 10:00"), T("2024-01-01 10:10")), cat,
      level, "vm");
}

EventWeightModel MakeModel() {
  auto ticket = TicketRankModel::FromCounts(
      {{"slow_io", 100}, {"packet_loss", 10}, {"gpu_drop", 50},
       {"mem_bw_contention", 5}},
      4);
  return EventWeightModel::Build(std::move(ticket).value(), {}).value();
}

TEST(PrioritizerTest, CreateValidation) {
  const EventWeightModel model = MakeModel();
  EXPECT_TRUE(OperationPrioritizer::Create(nullptr).status()
                  .IsInvalidArgument());
  OperationPrioritizer::Options bad;
  bad.migrate_threshold = 0.0;
  EXPECT_TRUE(OperationPrioritizer::Create(&model, bad).status()
                  .IsInvalidArgument());
  bad.migrate_threshold = 0.9;
  bad.cold_migrate_threshold = 0.5;
  EXPECT_TRUE(OperationPrioritizer::Create(&model, bad).status()
                  .IsInvalidArgument());
}

TEST(PrioritizerTest, DamageRateIsMaxActiveWeight) {
  const EventWeightModel model = MakeModel();
  auto prioritizer = OperationPrioritizer::Create(&model).value();
  PendingVm vm{.vm_id = "vm-1",
               .active_events = {
                   Res("packet_loss", Severity::kWarning,
                       StabilityCategory::kPerformance),
                   Res("slow_io", Severity::kCritical,
                       StabilityCategory::kPerformance),
               }};
  auto op = prioritizer.Score(vm);
  ASSERT_TRUE(op.ok());
  // slow_io: l=0.75, top ticket rank p=1.0 -> 0.875 dominates packet_loss.
  EXPECT_DOUBLE_EQ(op->damage_rate, 0.875);
  EXPECT_EQ(op->driving_event, "slow_io");
}

TEST(PrioritizerTest, SeverityDrivenActionSelection) {
  const EventWeightModel model = MakeModel();
  auto prioritizer = OperationPrioritizer::Create(&model).value();

  // No events -> nothing to do.
  auto idle = prioritizer.Score({.vm_id = "idle"});
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle->action, ActionType::kNullAction);
  EXPECT_DOUBLE_EQ(idle->damage_rate, 0.0);

  // Low-severity issue -> ticket only (Sec. VIII-C: "low-severity issues
  // might result in a ticket being filed").
  auto low = prioritizer.Score(
      {.vm_id = "low",
       .active_events = {Res("mem_bw_contention", Severity::kInfo,
                             StabilityCategory::kPerformance)}});
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low->action, ActionType::kRepairRequest);

  // Mid damage -> live migration.
  auto mid = prioritizer.Score(
      {.vm_id = "mid",
       .active_events = {Res("slow_io", Severity::kCritical,
                             StabilityCategory::kPerformance)}});
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->action, ActionType::kLiveMigration);

  // Full-weight damage (unavailability) -> cold migration.
  auto fatal = prioritizer.Score(
      {.vm_id = "fatal",
       .active_events = {Res("vm_crash", Severity::kFatal,
                             StabilityCategory::kUnavailability)}});
  ASSERT_TRUE(fatal.ok());
  EXPECT_DOUBLE_EQ(fatal->damage_rate, 1.0);
  EXPECT_EQ(fatal->action, ActionType::kColdMigration);
}

TEST(PrioritizerTest, RankOrdersByDescendingDamage) {
  const EventWeightModel model = MakeModel();
  auto prioritizer = OperationPrioritizer::Create(&model).value();
  std::vector<PendingVm> vms = {
      {.vm_id = "vm-low",
       .active_events = {Res("packet_loss", Severity::kInfo,
                             StabilityCategory::kPerformance)}},
      {.vm_id = "vm-down",
       .active_events = {Res("vm_crash", Severity::kFatal,
                             StabilityCategory::kUnavailability)}},
      {.vm_id = "vm-mid",
       .active_events = {Res("slow_io", Severity::kCritical,
                             StabilityCategory::kPerformance)}},
  };
  auto ranked = prioritizer.Rank(vms);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 3u);
  EXPECT_EQ((*ranked)[0].vm_id, "vm-down");
  EXPECT_EQ((*ranked)[1].vm_id, "vm-mid");
  EXPECT_EQ((*ranked)[2].vm_id, "vm-low");
  // The paper's motivating example: between two migrations, the VM with the
  // higher event weights goes first.
  EXPECT_GT((*ranked)[0].damage_rate, (*ranked)[1].damage_rate);
}

TEST(PrioritizerTest, TieBreaksByVmId) {
  const EventWeightModel model = MakeModel();
  auto prioritizer = OperationPrioritizer::Create(&model).value();
  std::vector<PendingVm> vms = {
      {.vm_id = "vm-b",
       .active_events = {Res("slow_io", Severity::kCritical,
                             StabilityCategory::kPerformance)}},
      {.vm_id = "vm-a",
       .active_events = {Res("slow_io", Severity::kCritical,
                             StabilityCategory::kPerformance)}},
  };
  auto ranked = prioritizer.Rank(vms);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ((*ranked)[0].vm_id, "vm-a");
}

}  // namespace
}  // namespace cdibot
