// Integration tests for the extension modules working together:
// mined rules feeding the rule engine, the prioritizer driving the
// operation platform, the surge monitor over simulated days, and the BI
// drill-down and CSV export over real job output.
#include <gtest/gtest.h>

#include <map>

#include "cdi/pipeline.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "dataflow/csv.h"
#include "event_test_util.h"
#include "extract/surge.h"
#include "ops/operation_platform.h"
#include "ops/prioritizer.h"
#include "rules/mining.h"
#include "rules/rule_engine.h"
#include "sim/scenario.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

TEST(ExtensionsIntegrationTest, MinedRuleRegistersAndMatches) {
  // Build co-occurrence history where nic_flapping and slow_io recur
  // together, mine the rule, register its expression, and match it against
  // a fresh occurrence — the full Sec. II-D discovery loop.
  std::vector<RawEvent> history;
  auto push = [&history](const char* name, const char* time,
                         const char* target) {
    RawEvent ev;
    ev.name = name;
    ev.time = T(time);
    ev.target = target;
    ev.expire_interval = Duration::Hours(1);
    history.push_back(std::move(ev));
  };
  for (int i = 0; i < 12; ++i) {
    const std::string t = StrFormat("2024-01-%02d 10:00", i + 1);
    const std::string t2 = StrFormat("2024-01-%02d 10:02", i + 1);
    const std::string vm = StrFormat("vm-%d", i);
    push("nic_flapping", t.c_str(), vm.c_str());
    push("slow_io", t2.c_str(), vm.c_str());
  }
  for (int i = 0; i < 20; ++i) {
    push("vcpu_high", StrFormat("2024-02-%02d 09:00", i + 1).c_str(),
         StrFormat("vm-x%d", i).c_str());
  }

  const auto txns =
      TransactionsFromEvents(history, Duration::Minutes(10));
  MiningOptions options;
  options.min_support = 8;
  options.min_confidence = 0.8;
  options.min_lift = 1.2;
  auto rules = MineAssociationRules(txns, options).value();
  ASSERT_FALSE(rules.empty());

  // Register the top mined rule; the consequent names the symptom, the
  // antecedent co-occurring with it forms the match expression.
  const AssociationRule& mined = rules.front();
  const std::string expr =
      mined.ToExpression() + " && " + mined.consequent;
  RuleEngine engine;
  ASSERT_TRUE(engine.Register("mined_rule", expr, {{"live_migration", 9}})
                  .ok());

  std::vector<RawEvent> now;
  {
    RawEvent a;
    a.name = "nic_flapping";
    a.time = T("2024-06-01 12:00");
    a.target = "vm-new";
    a.expire_interval = Duration::Hours(1);
    now.push_back(a);
    a.name = "slow_io";
    a.time = T("2024-06-01 12:01");
    now.push_back(a);
  }
  EXPECT_EQ(engine.MatchEvents(now, "vm-new", T("2024-06-01 12:02")).size(),
            1u);
}

TEST(ExtensionsIntegrationTest, PrioritizerFeedsOperationPlatform) {
  auto ticket = TicketRankModel::FromCounts(
      {{"slow_io", 100}, {"packet_loss", 10}}, 4);
  const auto weights =
      EventWeightModel::Build(std::move(ticket).value(), {}).value();
  auto prioritizer = OperationPrioritizer::Create(&weights).value();

  const Interval period(T("2024-01-01 10:00"), T("2024-01-01 10:10"));
  std::vector<PendingVm> pending = {
      {.vm_id = "vm-crash",
       .active_events = {testutil::Resolved(
           "vm_crash", period, StabilityCategory::kUnavailability,
           Severity::kFatal, "vm-crash")}},
      {.vm_id = "vm-slow",
       .active_events = {testutil::Resolved(
           "slow_io", period, StabilityCategory::kPerformance,
           Severity::kCritical, "vm-slow")}},
  };
  auto ranked = prioritizer.Rank(pending).value();

  // Feed the ranked decisions into the platform; priority encodes rank.
  OperationPlatform platform;
  std::vector<ActionRequest> requests;
  int priority = static_cast<int>(ranked.size());
  for (const PrioritizedOperation& op : ranked) {
    requests.push_back(ActionRequest{.type = op.action,
                                     .target = op.vm_id,
                                     .source_rule = "prioritizer",
                                     .priority = priority--,
                                     .submitted_at = period.end});
  }
  auto records = platform.Submit(std::move(requests),
                                 {{"vm-crash", "nc-1"}, {"vm-slow", "nc-2"}});
  ASSERT_EQ(records.size(), 2u);
  // The fully-down VM cold-migrates first; the degraded one live-migrates.
  EXPECT_EQ(records[0].request.target, "vm-crash");
  EXPECT_EQ(records[0].request.type, ActionType::kColdMigration);
  EXPECT_EQ(records[1].request.type, ActionType::kLiveMigration);
  EXPECT_EQ(records[0].outcome, ActionOutcome::kExecuted);
  EXPECT_EQ(records[1].outcome, ActionOutcome::kExecuted);
}

TEST(ExtensionsIntegrationTest, SurgeMonitorOverSimulatedDays) {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  Rng rng(55);
  FaultInjector injector(&catalog, &rng);
  auto fleet = Fleet::Build(FleetSpec{}).value();
  auto detector = SurgeDetector::Create().value();

  const TimePoint start = T("2024-03-01 00:00");
  bool surged_early = false;
  std::vector<SurgeAlert> surge_day_alerts;
  for (int d = 0; d < 12; ++d) {
    EventLog log;
    FaultRates rates = BaselineRates().Scaled(5.0);
    if (d == 10) {
      // A bad rollout floods packet_loss across the fleet.
      rates.episodes_per_vm_day["packet_loss"] *= 40.0;
    }
    ASSERT_TRUE(
        injector.InjectDay(fleet, start + Duration::Days(d), rates, &log)
            .ok());
    const Interval day(start + Duration::Days(d),
                       start + Duration::Days(d + 1));
    auto alerts = detector.ObserveDay(day.start, log.Search(day));
    if (d < 10 && !alerts.empty()) surged_early = true;
    if (d == 10) surge_day_alerts = alerts;
  }
  EXPECT_FALSE(surged_early);
  ASSERT_FALSE(surge_day_alerts.empty());
  bool found = false;
  for (const SurgeAlert& alert : surge_day_alerts) {
    if (alert.event_name == "packet_loss") {
      found = true;
      EXPECT_GE(alert.affected_targets, 3u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ExtensionsIntegrationTest, DrilldownAndCsvExportOverRealJobOutput) {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  Rng rng(66);
  FaultInjector injector(&catalog, &rng);
  auto fleet = Fleet::Build(FleetSpec{}).value();
  EventLog log;
  const TimePoint day_start = T("2024-04-01 00:00");
  const Interval day(day_start, day_start + Duration::Days(1));
  ASSERT_TRUE(injector
                  .InjectDay(fleet, day_start, BaselineRates().Scaled(10.0),
                             &log)
                  .ok());

  auto ticket = TicketRankModel::FromCounts(
      {{"slow_io", 100}, {"packet_loss", 50}, {"vcpu_high", 30}}, 4);
  const auto weights =
      EventWeightModel::Build(std::move(ticket).value(), {}).value();
  ThreadPool pool(4);
  DailyCdiJob job(DailyCdiJob::Options{.log = &log,
                                       .catalog = &catalog,
                                       .weights = &weights,
                                       .pool = &pool,
                                       .min_parallel_rows = 2});
  auto result = job.Run(fleet.ServiceInfos(day).value(), day).value();

  // Eq. 4 by region, against a plain weighted mean of each region's rows;
  // the groups partition the fleet.
  const auto native = RunDrilldown(result.per_vm, {.dimensions = {"region"}});
  ASSERT_TRUE(native.ok());
  struct Sums {
    double weighted = 0.0;
    double minutes = 0.0;
    size_t vms = 0;
  };
  std::map<std::string, Sums> by_region;
  for (const VmCdiRecord& rec : result.per_vm) {
    const auto region = rec.dims.find("region");
    ASSERT_NE(region, rec.dims.end()) << rec.vm_id;
    Sums& sums = by_region[region->second];
    sums.weighted += rec.cdi.service_time.minutes() * rec.cdi.performance;
    sums.minutes += rec.cdi.service_time.minutes();
    ++sums.vms;
  }
  ASSERT_EQ(native->groups.size(), by_region.size());
  for (const DrilldownGroup& group : native->groups) {
    ASSERT_EQ(by_region.count(group.key), 1u) << group.key;
    const Sums& sums = by_region[group.key];
    EXPECT_EQ(group.vm_count, sums.vms);
    EXPECT_NEAR(group.cdi.performance, sums.weighted / sums.minutes, 1e-12);
  }

  // The per-VM table survives a CSV round trip value for value.
  const dataflow::Table table = result.ToVmTable();
  ASSERT_EQ(table.num_rows(), result.per_vm.size());
  auto back = dataflow::FromCsv(dataflow::ToCsv(table), table.schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.schema().num_fields(); ++c) {
      EXPECT_EQ(back->row(r)[c], table.row(r)[c]) << "row " << r << " col "
                                                  << c;
    }
  }
}

}  // namespace
}  // namespace cdibot
