// Quickstart: compute the three CDI sub-metrics for a single VM-day.
//
// The flow is the library's minimal happy path:
//   1. describe events with the built-in catalog,
//   2. store raw events as rows and resolve them into periods,
//   3. build an event weight model (Eqs. 1-3),
//   4. attach weights and run Algorithm 1 per category (ComputeVmCdi).
#include <cstdio>
#include <string>
#include <vector>

#include "cdibot.h"

using namespace cdibot;

int main() {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  const PeriodResolver resolver(&catalog);

  // A day's worth of raw events for one VM, as the Event Extractor would
  // emit them: 12 consecutive minutes of slow_io, one 90-second in-place
  // reboot, and a failed resize attempt.
  const TimePoint day_start = TimePoint::Parse("2026-07-06 00:00").value();
  const Interval day(day_start, day_start + Duration::Days(1));

  std::vector<RawEvent> raw;
  for (int m = 1; m <= 12; ++m) {
    raw.push_back(RawEvent{.name = "slow_io",
                           .time = day_start + Duration::Hours(9) +
                                   Duration::Minutes(m),
                           .target = "vm-42",
                           .expire_interval = Duration::Hours(24),
                           .level = Severity::kCritical,
                           .attrs = {}});
  }
  raw.push_back(RawEvent{.name = "vm_reboot",
                         .time = day_start + Duration::Hours(14),
                         .target = "vm-42",
                         .expire_interval = Duration::Hours(24),
                         .level = Severity::kCritical,
                         .attrs = {{"duration_ms", "90000"}}});
  raw.push_back(RawEvent{.name = "vm_resize_failed",
                         .time = day_start + Duration::Hours(18),
                         .target = "vm-42",
                         .expire_interval = Duration::Hours(24),
                         .level = Severity::kCritical,
                         .attrs = {}});

  // The event log keeps events as columnar rows; the resolver reads refs
  // into them.
  EventRows rows;
  std::vector<EventRef> refs;
  for (const RawEvent& ev : raw) refs.emplace_back(&rows, rows.Append(ev));
  auto resolved = resolver.ResolveRefs(refs, day);
  if (!resolved.ok()) {
    std::fprintf(stderr, "resolve failed: %s\n",
                 resolved.status().ToString().c_str());
    return 1;
  }

  // Weight model: expert severities from the catalog, customer weights from
  // last year's ticket counts per event (Eq. 2), mixed 50/50 (Eq. 3).
  auto ticket_model = TicketRankModel::FromCounts(
      {{"slow_io", 420}, {"vm_resize_failed", 77}, {"packet_loss", 160},
       {"vcpu_high", 230}},
      /*num_levels=*/4);
  auto weights =
      EventWeightModel::Build(std::move(ticket_model).value(), {});
  if (!weights.ok()) {
    std::fprintf(stderr, "weights failed: %s\n",
                 weights.status().ToString().c_str());
    return 1;
  }

  auto weighted = AttachWeights(*resolved, *weights);
  if (!weighted.ok()) {
    std::fprintf(stderr, "weights failed: %s\n",
                 weighted.status().ToString().c_str());
    return 1;
  }
  auto cdi = ComputeVmCdi(*weighted, day);
  if (!cdi.ok()) {
    std::fprintf(stderr, "cdi failed: %s\n", cdi.status().ToString().c_str());
    return 1;
  }

  std::printf("CDI for vm-42 on %s (service %.0f minutes)\n",
              day_start.ToDateString().c_str(), day.length().minutes());
  std::printf("  Unavailability Indicator : %.6f\n", cdi->unavailability);
  std::printf("  Performance Indicator    : %.6f\n", cdi->performance);
  std::printf("  Control-Plane Indicator  : %.6f\n", cdi->control_plane);
  std::printf("\nResolved events:\n");
  for (const ResolvedEventView& ev : *resolved) {
    const std::string name(GlobalInterner().NameOf(ev.name_id));
    std::printf("  %-18s %s  level=%s  %s\n", name.c_str(),
                ev.period.ToString().c_str(),
                std::string(SeverityToString(ev.level)).c_str(),
                std::string(StabilityCategoryToString(ev.category)).c_str());
  }
  return 0;
}
