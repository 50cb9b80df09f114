// Ablation of the CloudBot closed loop itself (Sec. II: "CloudBot ...
// automatically executes operation actions to ensure the stability of
// cloud services"): the same fault workload evaluated with the Rule Engine
// + Operation Platform acting vs monitor-only, across rule-evaluation
// cadences. Shows (a) how much CDI the automation removes, and (b) that
// the CDI honestly charges the migration brown-outs automation causes.
#include <cstdio>

#include "common/thread_pool.h"
#include "sim/cloudbot_loop.h"

using namespace cdibot;

int main() {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  FleetSpec fspec;
  fspec.regions = 1;
  fspec.azs_per_region = 2;
  fspec.clusters_per_az = 2;
  fspec.ncs_per_cluster = 4;
  fspec.vms_per_nc = 8;
  const Fleet fleet = Fleet::Build(fspec).value();

  auto ticket_model = TicketRankModel::FromCounts(
      {{"slow_io", 420}, {"nic_flapping", 80}, {"live_migration", 10}}, 4);
  const auto weights =
      EventWeightModel::Build(std::move(ticket_model).value(), {}).value();
  ThreadPool pool(8);
  const TimePoint day = TimePoint::Parse("2026-04-01 00:00").value();

  std::printf("CloudBot automation ablation (NIC incidents, Example 1 rule)\n\n");
  std::printf("%-22s %10s %10s %12s %14s %14s\n", "configuration",
              "incidents", "migrated", "CDI-P", "damage avoided",
              "vs no-automation");

  // Baseline: automation off.
  AutomationLoopOptions off;
  off.automation_enabled = false;
  Rng rng_off(2026);
  auto baseline = RunAutomationDay(fleet, day, catalog, weights, off,
                                   &rng_off, &pool);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
    return 1;
  }
  std::printf("%-22s %10zu %10zu %12.6f %14s %14s\n", "no automation",
              baseline->incidents, baseline->migrations_executed,
              baseline->fleet_cdi.performance, "-", "1.00x");

  bool all_better = true;
  for (int tick_minutes : {1, 5, 15, 60}) {
    AutomationLoopOptions on;
    on.automation_enabled = true;
    on.tick = Duration::Minutes(tick_minutes);
    Rng rng(2026);  // identical incident plan
    auto result =
        RunAutomationDay(fleet, day, catalog, weights, on, &rng, &pool);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const double improvement = baseline->fleet_cdi.performance /
                               std::max(1e-12,
                                        result->fleet_cdi.performance);
    char label[40];
    std::snprintf(label, sizeof(label), "automation, tick=%dm", tick_minutes);
    char avoided[32];
    std::snprintf(avoided, sizeof(avoided), "%.0f min",
                  result->damage_avoided.minutes());
    char factor[16];
    std::snprintf(factor, sizeof(factor), "%.1fx", improvement);
    std::printf("%-22s %10zu %10zu %12.6f %14s %14s\n", label,
                result->incidents, result->migrations_executed,
                result->fleet_cdi.performance, avoided, factor);
    all_better &= result->fleet_cdi.performance <
                  baseline->fleet_cdi.performance;
  }

  std::printf(
      "\nReading: every automated configuration beats monitor-only; faster "
      "rule ticks\ntruncate incidents sooner, and the residual CDI-P is the "
      "honest cost of the\nincidents' first minutes plus the migration "
      "brown-outs.\n");
  std::printf("%s\n", all_better
                          ? "REPRODUCED: the closed loop pays for itself at "
                            "every cadence."
                          : "MISMATCH: some cadence did not improve CDI.");
  return all_better ? 0 : 1;
}
