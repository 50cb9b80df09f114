// Full-stack integration: simulated fleet -> injected faults -> daily CDI
// job -> drill-down + event-level monitoring + baselines, across several
// days, exercising the Sec. VI applications end to end.
#include <gtest/gtest.h>

#include "anomaly/ksigma.h"
#include "cdi/pipeline.h"
#include "common/thread_pool.h"
#include "sim/incidents.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

class FullPipelineTest : public ::testing::Test {
 protected:
  FullPipelineTest()
      : catalog_(EventCatalog::BuiltIn()),
        rng_(2024),
        injector_(&catalog_, &rng_),
        pool_(4) {
    FleetSpec spec;
    spec.regions = 1;
    spec.azs_per_region = 2;
    spec.clusters_per_az = 2;
    spec.ncs_per_cluster = 3;
    spec.vms_per_nc = 4;
    fleet_.emplace(Fleet::Build(spec).value());
    auto ticket = TicketRankModel::FromCounts(
        {{"slow_io", 120}, {"packet_loss", 80}, {"vcpu_high", 60},
         {"vm_crash", 200}, {"api_error", 40}},
        4);
    weights_.emplace(
        EventWeightModel::Build(std::move(ticket).value(), {}).value());
  }

  StatusOr<DailyCdiResult> RunDay(TimePoint day_start) {
    const Interval day(day_start, day_start + Duration::Days(1));
    DailyCdiJob job(DailyCdiJob::Options{.log = &log_,
                                         .catalog = &catalog_,
                                         .weights = &*weights_,
                                         .pool = &pool_,
                                         .min_parallel_rows = 2});
    CDIBOT_ASSIGN_OR_RETURN(auto vms, fleet_->ServiceInfos(day));
    return job.Run(vms, day);
  }

  EventCatalog catalog_;
  Rng rng_;
  FaultInjector injector_;
  ThreadPool pool_;
  std::optional<Fleet> fleet_;
  std::optional<EventWeightModel> weights_;
  EventLog log_;
};

TEST_F(FullPipelineTest, MultiDayTrendReflectsInjectedRates) {
  // Three days with decreasing fault rates: the daily CDI must decrease.
  const TimePoint d0 = T("2024-05-01 00:00");
  std::vector<double> daily_p;
  const double scales[3] = {8.0, 3.0, 0.5};
  for (int d = 0; d < 3; ++d) {
    ASSERT_TRUE(injector_
                    .InjectDay(*fleet_, d0 + Duration::Days(d),
                               BaselineRates().Scaled(scales[d]), &log_)
                    .ok());
    auto result = RunDay(d0 + Duration::Days(d));
    ASSERT_TRUE(result.ok());
    daily_p.push_back(result->fleet.performance);
  }
  EXPECT_GT(daily_p[0], daily_p[1]);
  EXPECT_GT(daily_p[1], daily_p[2]);
}

TEST_F(FullPipelineTest, EventLevelSpikeDetectedByKSigma) {
  // Case 6: a baseline of normal days, then an allocation-bug day; the
  // event-level CDI series for vm_allocation_failed spikes on day 14.
  const TimePoint d0 = T("2024-05-01 00:00");
  std::vector<double> series;
  for (int d = 0; d < 16; ++d) {
    const TimePoint day = d0 + Duration::Days(d);
    ASSERT_TRUE(
        injector_.InjectDay(*fleet_, day, BaselineRates(), &log_).ok());
    if (d == 13) {
      ASSERT_TRUE(InjectAllocationBug(*fleet_, "r0-az0-c0", day, 0.6,
                                      &injector_, &log_, &rng_)
                      .ok());
    }
    auto result = RunDay(day);
    ASSERT_TRUE(result.ok());
    auto value = EventLevelCdiFor(result->per_event, "vm_allocation_failed",
                                  result->fleet_service_time);
    ASSERT_TRUE(value.ok());
    series.push_back(value.value());
  }
  auto scan = KSigmaScan(series, 8, 3.0);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ((*scan)[13], AnomalyDirection::kSpike);
}

TEST_F(FullPipelineTest, ResolveStatsAccumulateAcrossVms) {
  const TimePoint d0 = T("2024-05-01 00:00");
  ASSERT_TRUE(injector_
                  .InjectDay(*fleet_, d0, BaselineRates().Scaled(5.0), &log_)
                  .ok());
  auto result = RunDay(d0);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->resolve_stats.resolved, 0u);
  EXPECT_EQ(result->resolve_stats.unknown_dropped, 0u);
}

TEST_F(FullPipelineTest, ExportedDayRoundTripsThroughStorage) {
  // SLS -> MaxCompute sync (Fig. 4): exporting a day and re-importing it
  // yields the same CDI.
  const TimePoint d0 = T("2024-05-01 00:00");
  ASSERT_TRUE(injector_
                  .InjectDay(*fleet_, d0, BaselineRates().Scaled(4.0), &log_)
                  .ok());
  auto direct = RunDay(d0);
  ASSERT_TRUE(direct.ok());

  auto table = log_.ExportDay(d0);
  ASSERT_TRUE(table.ok());
  auto events = EventLog::ImportTable(table.value());
  ASSERT_TRUE(events.ok());
  EventLog log2;
  log2.AppendBatch(*events);
  // Also re-import the preceding/next day partitions (empty here).
  DailyCdiJob job(DailyCdiJob::Options{
      .log = &log2, .catalog = &catalog_, .weights = &*weights_});
  const Interval day(d0, d0 + Duration::Days(1));
  auto vms = fleet_->ServiceInfos(day).value();
  auto reimported = job.Run(vms, day);
  ASSERT_TRUE(reimported.ok());
  EXPECT_NEAR(direct->fleet.performance, reimported->fleet.performance,
              1e-12);
  EXPECT_NEAR(direct->fleet.unavailability, reimported->fleet.unavailability,
              1e-12);
  EXPECT_NEAR(direct->fleet.control_plane, reimported->fleet.control_plane,
              1e-12);
}

}  // namespace
}  // namespace cdibot
