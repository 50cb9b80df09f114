// Regenerates Fig. 8 + Case 5 ("Performance Indicator of deployment
// architectures"): daily CDI-P of homogeneous-deployment vs hybrid-
// deployment VM pools over 28 days. The hybrid pool diverges from Day 13
// (virtualization incompatibility on one machine model causes CPU
// contention on overlapping core ranges) and the curves reconverge by Day
// 28 after the staged rollback.
#include <cstdio>

#include "cdi/pipeline.h"
#include "common/thread_pool.h"
#include "sim/incidents.h"

using namespace cdibot;

int main() {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  Rng rng(88);
  FaultInjector injector(&catalog, &rng);

  FleetSpec fspec;
  fspec.regions = 1;
  fspec.azs_per_region = 2;
  fspec.clusters_per_az = 2;
  fspec.ncs_per_cluster = 6;
  fspec.vms_per_nc = 8;
  fspec.hybrid_fraction = 0.5;
  fspec.gen2_fraction = 0.4;  // Case 5's defect hits only this model
  const Fleet fleet = Fleet::Build(fspec).value();

  auto ticket_model = TicketRankModel::FromCounts(
      {{"vcpu_high", 230}, {"slow_io", 420}, {"packet_loss", 160},
       {"api_error", 90}},
      4);
  const auto weights =
      EventWeightModel::Build(std::move(ticket_model).value(), {}).value();
  ThreadPool pool(8);

  constexpr int kDays = 28;
  constexpr int kDefectDay = 13;    // divergence starts (paper: Day 13)
  constexpr int kRollbackStart = 20;  // staged rollback ramps the defect down
  constexpr int kConverged = 25;    // curves converge by Day 26

  const TimePoint start = TimePoint::Parse("2026-02-01 00:00").value();
  std::vector<double> homog(kDays), hybrid(kDays);

  std::printf("Fig. 8: Performance Indicator per deployment architecture\n");
  std::printf("%4s %14s %14s  %s\n", "day", "homogeneous", "hybrid", "phase");
  for (int d = 0; d < kDays; ++d) {
    const TimePoint day_start = start + Duration::Days(d);
    const Interval day(day_start, day_start + Duration::Days(1));
    EventLog log;
    (void)injector.InjectDay(fleet, day_start, BaselineRates().Scaled(4.0),
                             &log);
    double intensity = 0.0;
    if (d >= kDefectDay && d < kRollbackStart) {
      intensity = 2.5;  // defect fully active
    } else if (d >= kRollbackStart && d < kConverged) {
      // staged rollback: affected machines drain over the week
      intensity = 2.5 *
                  (1.0 - static_cast<double>(d - kRollbackStart + 1) /
                             (kConverged - kRollbackStart));
    }
    if (intensity > 0.0) {
      if (!InjectHybridContentionDefect(fleet, day_start, "gen2", intensity,
                                        &injector, &log, &rng)
               .ok()) {
        return 1;
      }
    }
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
    auto by_arch = RunDrilldown(result->per_vm, {.dimensions = {"arch"}});
    if (!by_arch.ok()) {
      std::fprintf(stderr, "%s\n", by_arch.status().ToString().c_str());
      return 1;
    }
    for (const DrilldownGroup& g : by_arch->groups) {
      if (g.key == "homogeneous") homog[d] = g.cdi.performance;
      if (g.key == "hybrid") hybrid[d] = g.cdi.performance;
    }
    const char* phase = d < kDefectDay            ? "parity"
                        : d < kRollbackStart      ? "DEFECT"
                        : d < kConverged          ? "rollback"
                                                  : "converged";
    std::printf("%4d %14.6f %14.6f  %s\n", d + 1, homog[d], hybrid[d], phase);
  }

  // Shape checks: parity before Day 13, clear divergence during the defect,
  // reconvergence at the end.
  auto mean_ratio = [&](int lo, int hi) {
    double h = 0.0, y = 0.0;
    for (int d = lo; d < hi; ++d) {
      h += homog[d];
      y += hybrid[d];
    }
    return y / h;
  };
  const double before = mean_ratio(0, kDefectDay);
  const double during = mean_ratio(kDefectDay, kRollbackStart);
  const double after = mean_ratio(kConverged, kDays);
  std::printf("\nhybrid/homogeneous CDI-P ratio: before %.2f, during defect "
              "%.2f, after rollback %.2f\n",
              before, during, after);
  const bool ok = before < 1.35 && during > 2.0 && after < 1.35;
  std::printf("%s\n", ok ? "REPRODUCED: minimal variance, divergence from Day "
                           "13, reconvergence by Day 28."
                         : "MISMATCH: see ratios above.");
  return ok ? 0 : 1;
}
