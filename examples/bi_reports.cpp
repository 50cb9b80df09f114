// BI-layer walkthrough (Sec. V + Sec. VIII-B): run the daily CDI job on a
// simulated fleet, answer the drill-down questions a stability engineer
// would ask — CDI by AZ (Eq. 4, exact), the worst VMs, the most damaging
// events — export the AZ report to CSV, and compute the
// Customer-Perspective Indicator to show how much damage the customer
// never sees.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "cdi/customer_indicator.h"
#include "cdi/pipeline.h"
#include "common/thread_pool.h"
#include "dataflow/csv.h"
#include "event/period_resolver.h"
#include "sim/incidents.h"

using namespace cdibot;

int main() {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  Rng rng(99);
  FaultInjector injector(&catalog, &rng);
  EventLog log;

  FleetSpec fspec;
  fspec.regions = 2;
  fspec.azs_per_region = 2;
  fspec.clusters_per_az = 2;
  fspec.ncs_per_cluster = 4;
  fspec.vms_per_nc = 6;
  const Fleet fleet = Fleet::Build(fspec).value();

  const TimePoint day_start = TimePoint::Parse("2026-07-06 00:00").value();
  const Interval day(day_start, day_start + Duration::Days(1));
  (void)injector.InjectDay(fleet, day_start, BaselineRates().Scaled(8.0),
                           &log);
  (void)InjectAllocationBug(fleet, "r1-az0-c0", day_start, 0.4, &injector,
                            &log, &rng);

  auto ticket_model = TicketRankModel::FromCounts(
      {{"slow_io", 420}, {"packet_loss", 160}, {"vcpu_high", 230},
       {"vm_allocation_failed", 140}, {"api_error", 90}},
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

  // --- CDI by AZ: the Eq.-4 drill-down ---------------------------------------
  auto by_az =
      RunDrilldown(result->per_vm, {.dimensions = {"az"}, .filter = {}});
  if (!by_az.ok()) {
    std::fprintf(stderr, "%s\n", by_az.status().ToString().c_str());
    return 1;
  }
  dataflow::Table az_report(dataflow::Schema(
      {dataflow::Field{"az", dataflow::ValueType::kString},
       dataflow::Field{"cdi_u", dataflow::ValueType::kDouble},
       dataflow::Field{"cdi_p", dataflow::ValueType::kDouble},
       dataflow::Field{"cdi_c", dataflow::ValueType::kDouble},
       dataflow::Field{"vms", dataflow::ValueType::kInt}}));
  for (const DrilldownGroup& g : by_az->groups) {
    az_report.AppendUnchecked(
        {dataflow::Value(g.key), dataflow::Value(g.cdi.unavailability),
         dataflow::Value(g.cdi.performance),
         dataflow::Value(g.cdi.control_plane),
         dataflow::Value(static_cast<int64_t>(g.vm_count))});
  }
  std::printf("\nCDI by AZ (Eq. 4):\n%s", az_report.ToPrettyString().c_str());

  // --- The five worst VMs by performance damage ------------------------------
  std::vector<const VmCdiRecord*> worst;
  for (const VmCdiRecord& rec : result->per_vm) worst.push_back(&rec);
  const size_t top = std::min<size_t>(5, worst.size());
  std::partial_sort(worst.begin(), worst.begin() + top, worst.end(),
                    [](const VmCdiRecord* a, const VmCdiRecord* b) {
                      return a->cdi.performance > b->cdi.performance;
                    });
  std::printf("\nWorst VMs by CDI-P:\n%-24s %-12s %12s\n", "vm_id",
              "cluster", "cdi_p");
  for (size_t i = 0; i < top && worst[i]->cdi.performance > 0; ++i) {
    const auto cluster = worst[i]->dims.find("cluster");
    std::printf("%-24s %-12s %12.6f\n", worst[i]->vm_id.c_str(),
                cluster == worst[i]->dims.end() ? "" : cluster->second.c_str(),
                worst[i]->cdi.performance);
  }

  // --- The most damaging events: event-level CDI (Sec. VI-C) -----------------
  auto by_event = EventLevelCdi(result->per_event, result->fleet_service_time);
  if (!by_event.ok()) {
    std::fprintf(stderr, "%s\n", by_event.status().ToString().c_str());
    return 1;
  }
  std::vector<std::pair<std::string, double>> ranked(by_event->begin(),
                                                     by_event->end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  ranked.resize(std::min<size_t>(6, ranked.size()));
  std::printf("\nMost damaging events (event-level CDI):\n%-24s %12s\n",
              "event", "cdi");
  for (const auto& [name, cdi] : ranked) {
    std::printf("%-24s %12.6f\n", name.c_str(), cdi);
  }

  // --- CSV export of the AZ report (the downstream-report path) --------------
  const std::string report_path =
      (std::filesystem::temp_directory_path() / "cdibot_az_report.csv")
          .string();
  if (!dataflow::WriteCsvFile(az_report, report_path).ok()) {
    std::fprintf(stderr, "report export failed\n");
    return 1;
  }
  std::printf("\nwrote %zu-row AZ report to %s\n", az_report.num_rows(),
              report_path.c_str());

  // --- Customer-Perspective Indicator (Sec. VIII-B) --------------------------
  const CustomerEventFilter filter = CustomerEventFilter::BuiltIn();
  const PeriodResolver resolver(&catalog);
  CdiAccumulator internal_p, customer_p;
  for (const VmCdiRecord& rec : result->per_vm) {
    const EventSpan span = log.Query(EventQuery{
        .interval = day, .target_id = GlobalInterner().Lookup(rec.vm_id)});
    std::vector<EventRef> refs;
    refs.reserve(span.UpperBound());
    span.ForEach([&refs](const EventRef& ev) { refs.push_back(ev); });
    auto resolved = resolver.ResolveRefs(refs, day);
    if (!resolved.ok()) return 1;
    auto cmp = CompareCdiAndCpi(*resolved, weights, filter, day);
    if (!cmp.ok()) return 1;
    internal_p.Add(day.length(), cmp->internal.performance);
    customer_p.Add(day.length(), cmp->customer.performance);
  }
  std::printf("\nCustomer-Perspective Indicator (performance):\n");
  std::printf("  internal CDI-P : %.6f\n", internal_p.Value());
  std::printf("  customer CPI-P : %.6f\n", customer_p.Value());
  std::printf("  hidden damage  : %.6f (%.0f%% of internal) — issues like "
              "vm_allocation_failed\n  are detected and fixed before the "
              "customer ever observes them.\n",
              internal_p.Value() - customer_p.Value(),
              100.0 * (internal_p.Value() - customer_p.Value()) /
                  internal_p.Value());
  return 0;
}
