#include <gtest/gtest.h>

#include "cdi/pipeline.h"
#include "sim/incidents.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

class IncidentsTest : public ::testing::Test {
 protected:
  IncidentsTest()
      : catalog_(EventCatalog::BuiltIn()),
        rng_(7),
        injector_(&catalog_, &rng_) {
    FleetSpec spec;
    spec.hybrid_fraction = 0.5;
    spec.gen2_fraction = 0.5;
    fleet_.emplace(Fleet::Build(spec).value());
    auto ticket = TicketRankModel::FromCounts(
        {{"slow_io", 100}, {"packet_loss", 60}, {"vcpu_high", 40},
         {"vm_create_failed", 30}, {"vm_resize_failed", 20}},
        4);
    weights_.emplace(
        EventWeightModel::Build(std::move(ticket).value(), {}).value());
    day_ = Interval(T("2024-04-25 00:00"), T("2024-04-26 00:00"));
  }

  StatusOr<DailyCdiResult> RunJob() {
    DailyCdiJob job(DailyCdiJob::Options{
        .log = &log_, .catalog = &catalog_, .weights = &*weights_});
    CDIBOT_ASSIGN_OR_RETURN(auto vms, fleet_->ServiceInfos(day_));
    return job.Run(vms, day_);
  }

  EventCatalog catalog_;
  Rng rng_;
  FaultInjector injector_;
  std::optional<Fleet> fleet_;
  std::optional<EventWeightModel> weights_;
  EventLog log_;
  Interval day_;
};

TEST_F(IncidentsTest, AzOutageShowsInCdiUAirAndDp) {
  const Interval outage(T("2024-04-25 17:00"), T("2024-04-25 19:00"));
  ASSERT_TRUE(
      InjectAzOutage(*fleet_, "r0-az0", outage, &injector_, &log_).ok());
  auto result = RunJob();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->fleet.unavailability, 0.0);
  EXPECT_GT(result->fleet.control_plane, 0.0);
  EXPECT_GT(result->fleet_baseline.downtime_percentage, 0.0);
  EXPECT_GT(result->fleet_baseline.annual_interruption_rate, 0.0);
  // Only the affected AZ carries unavailability.
  auto by_az = RunDrilldown(result->per_vm, {.dimensions = {"az"}});
  ASSERT_TRUE(by_az.ok());
  for (const DrilldownGroup& g : by_az->groups) {
    if (g.key == "r0-az0") {
      EXPECT_GT(g.cdi.unavailability, 0.05);
    } else {
      EXPECT_DOUBLE_EQ(g.cdi.unavailability, 0.0);
    }
  }
}

TEST_F(IncidentsTest, ControlPlaneOutageInvisibleToDowntimeMetrics) {
  // Fig. 5's key case (20250107): purchase/modify outage; existing VMs run.
  const Interval outage(T("2024-04-25 09:00"), T("2024-04-25 12:00"));
  ASSERT_TRUE(
      InjectControlPlaneOutage(*fleet_, "r0", outage, &injector_, &log_)
          .ok());
  auto result = RunJob();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->fleet_baseline.downtime_percentage, 0.0);
  EXPECT_DOUBLE_EQ(result->fleet_baseline.annual_interruption_rate, 0.0);
  EXPECT_DOUBLE_EQ(result->fleet.unavailability, 0.0);
  EXPECT_GT(result->fleet.control_plane, 0.0);  // CDI-C catches it
}

TEST_F(IncidentsTest, NetworkOutageMixesUnavailabilityAndPerformance) {
  const Interval outage(T("2024-04-25 17:00"), T("2024-04-25 18:00"));
  ASSERT_TRUE(InjectNetworkOutage(*fleet_, "r0-az1", outage, 0.3, &injector_,
                                  &log_, &rng_)
                  .ok());
  auto result = RunJob();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->fleet.unavailability, 0.0);
  EXPECT_GT(result->fleet.performance, 0.0);
}

TEST_F(IncidentsTest, HybridDefectOnlyHitsDefectiveModelHybrids) {
  ASSERT_TRUE(InjectHybridContentionDefect(*fleet_, day_.start, "gen2", 3.0,
                                           &injector_, &log_, &rng_)
                  .ok());
  auto result = RunJob();
  ASSERT_TRUE(result.ok());
  // Damage concentrates on hybrid NCs; homogeneous pools stay clean.
  double hybrid_p = 0.0, homog_p = 0.0;
  auto by_arch = RunDrilldown(result->per_vm, {.dimensions = {"arch"}});
  ASSERT_TRUE(by_arch.ok());
  for (const DrilldownGroup& g : by_arch->groups) {
    if (g.key == "hybrid") hybrid_p = g.cdi.performance;
    if (g.key == "homogeneous") homog_p = g.cdi.performance;
  }
  EXPECT_GT(hybrid_p, 0.0);
  EXPECT_DOUBLE_EQ(homog_p, 0.0);
  // And only on the defective model.
  auto by_model = RunDrilldown(result->per_vm, {.dimensions = {"model"}});
  ASSERT_TRUE(by_model.ok());
  for (const DrilldownGroup& g : by_model->groups) {
    if (g.key == "gen3") {
      EXPECT_DOUBLE_EQ(g.cdi.performance, 0.0);
    }
  }
}

TEST_F(IncidentsTest, AllocationBugConfinedToCluster) {
  const std::string cluster = "r0-az0-c0";
  ASSERT_TRUE(InjectAllocationBug(*fleet_, cluster, day_.start, 0.5,
                                  &injector_, &log_, &rng_)
                  .ok());
  auto result = RunJob();
  ASSERT_TRUE(result.ok());
  auto by_event = EventLevelCdi(result->per_event,
                                result->fleet_service_time);
  ASSERT_TRUE(by_event.ok());
  EXPECT_GT(by_event->at("vm_allocation_failed"), 0.0);
  auto by_cluster = RunDrilldown(result->per_vm, {.dimensions = {"cluster"}});
  ASSERT_TRUE(by_cluster.ok());
  for (const DrilldownGroup& g : by_cluster->groups) {
    if (g.key != cluster) {
      EXPECT_DOUBLE_EQ(g.cdi.performance, 0.0);
    }
  }
}

TEST_F(IncidentsTest, TdpMonitoringRateZeroIsSilent) {
  ASSERT_TRUE(
      InjectTdpMonitoring(*fleet_, day_.start, 0.0, &injector_, &log_).ok());
  EXPECT_EQ(log_.size(), 0u);
  ASSERT_TRUE(
      InjectTdpMonitoring(*fleet_, day_.start, 1.0, &injector_, &log_).ok());
  EXPECT_GT(log_.size(), 0u);
}

TEST_F(IncidentsTest, UnknownPlacementsFail) {
  const Interval outage(T("2024-04-25 17:00"), T("2024-04-25 18:00"));
  EXPECT_TRUE(InjectAzOutage(*fleet_, "nowhere", outage, &injector_, &log_)
                  .IsNotFound());
  EXPECT_TRUE(
      InjectControlPlaneOutage(*fleet_, "nowhere", outage, &injector_, &log_)
          .IsNotFound());
}

}  // namespace
}  // namespace cdibot
