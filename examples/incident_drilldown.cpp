// Incident evaluation and BI drill-down (Sec. V + Case 3): replay an
// availability-zone outage on a synthetic fleet, run the daily CDI job, and
// drill the indicators down region -> AZ -> cluster, alongside the classic
// Downtime Percentage and Annual Interruption Rate.
#include <cstdio>

#include "cdi/pipeline.h"
#include "common/thread_pool.h"
#include "sim/incidents.h"

using namespace cdibot;

int main() {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  Rng rng(42);
  FaultInjector injector(&catalog, &rng);
  EventLog log;

  FleetSpec spec;
  spec.regions = 2;
  spec.azs_per_region = 2;
  spec.clusters_per_az = 2;
  spec.ncs_per_cluster = 4;
  spec.vms_per_nc = 8;
  const Fleet fleet = Fleet::Build(spec).value();
  std::printf("fleet: %zu VMs on %zu NCs\n", fleet.num_vms(),
              fleet.topology().num_ncs());

  const TimePoint day_start = TimePoint::Parse("2026-04-25 00:00").value();
  const Interval day(day_start, day_start + Duration::Days(1));

  // Background noise plus a 2-hour outage of r0-az0 during the evening
  // business peak (the paper notes Case 2 hit at business peak).
  auto injected = injector.InjectDay(fleet, day_start, BaselineRates(), &log);
  if (!injected.ok()) return 1;
  const Interval outage(day_start + Duration::Hours(17),
                        day_start + Duration::Hours(19));
  if (!InjectAzOutage(fleet, "r0-az0", outage, &injector, &log).ok()) {
    return 1;
  }
  std::printf("injected %zu background episodes + AZ outage %s\n",
              injected.value(), outage.ToString().c_str());

  auto ticket_model = TicketRankModel::FromCounts(
      {{"slow_io", 420}, {"packet_loss", 160}, {"vcpu_high", 230},
       {"api_error", 90}, {"vm_start_failed", 60}},
      4);
  const auto weights =
      EventWeightModel::Build(std::move(ticket_model).value(), {}).value();

  ThreadPool pool(8);
  DailyCdiJob job(DailyCdiJob::Options{.log = &log,
                                       .catalog = &catalog,
                                       .weights = &weights,
                                       .pool = &pool,
                                       .min_parallel_rows = 2});
  auto result = job.Run(fleet.ServiceInfos(day).value(), day);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\n=== fleet-level indicators ===\n");
  std::printf("CDI-U %.6f  CDI-P %.6f  CDI-C %.6f\n",
              result->fleet.unavailability, result->fleet.performance,
              result->fleet.control_plane);
  std::printf("Downtime Percentage %.6f   Annual Interruption Rate %.2f   "
              "MTTR %s\n",
              result->fleet_baseline.downtime_percentage,
              result->fleet_baseline.annual_interruption_rate,
              result->fleet_baseline.mttr.ToString().c_str());

  for (const char* dim : {"region", "az", "cluster"}) {
    std::printf("\n=== drill-down by %s ===\n", dim);
    std::printf("%-14s %6s %12s %12s %12s\n", dim, "VMs", "CDI-U", "CDI-P",
                "CDI-C");
    auto by_dim = RunDrilldown(result->per_vm, {.dimensions = {dim}});
    if (!by_dim.ok()) {
      std::fprintf(stderr, "%s\n", by_dim.status().ToString().c_str());
      return 1;
    }
    for (const DrilldownGroup& g : by_dim->groups) {
      std::printf("%-14s %6zu %12.6f %12.6f %12.6f\n", g.key.c_str(),
                  g.vm_count, g.cdi.unavailability, g.cdi.performance,
                  g.cdi.control_plane);
    }
  }

  std::printf("\n=== top event-level CDI (Sec. VI-C drill-down) ===\n");
  auto by_event =
      EventLevelCdi(result->per_event, result->fleet_service_time).value();
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, value] : by_event) ranked.emplace_back(value, name);
  std::sort(ranked.rbegin(), ranked.rend());
  for (size_t i = 0; i < std::min<size_t>(5, ranked.size()); ++i) {
    std::printf("%-24s %.6f\n", ranked[i].second.c_str(), ranked[i].first);
  }
  return 0;
}
