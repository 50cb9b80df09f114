// End-to-end acceptance for the observability layer: one supervised
// streaming CloudBot day must leave a statusz report covering the whole
// pipeline (>= 8 instrumented subsystems) and a loadable Chrome-trace JSON
// whose spans nest correctly.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "obs/statusz.h"
#include "obs/trace.h"
#include "sim/cloudbot_loop.h"

namespace cdibot {
namespace {

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

TEST(CloudBotObservabilityTest, StatuszCoversPipelineAndTraceIsWritten) {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  FleetSpec spec;
  spec.regions = 1;
  spec.azs_per_region = 1;
  spec.clusters_per_az = 2;
  spec.ncs_per_cluster = 4;
  spec.vms_per_nc = 6;
  const Fleet fleet = Fleet::Build(spec).value();
  auto ticket = TicketRankModel::FromCounts(
      {{"slow_io", 100}, {"nic_flapping", 30}, {"live_migration", 5}}, 4);
  const auto weights =
      EventWeightModel::Build(std::move(ticket).value(), {}).value();

  const std::string trace_path =
      ::testing::TempDir() + "/cloudbot_obs_trace.json";
  AutomationLoopOptions options;
  options.streaming.emplace().supervisor = {
      .checkpoint_dir = ::testing::TempDir() + "/cloudbot_obs_ckpt",
      .crashes = 1};
  options.incident_probability = 0.3;
  options.obs.capture_statusz = true;
  options.obs.trace_json_path = trace_path;

  Rng rng(11);
  auto result = RunAutomationDay(fleet, T("2024-03-01 00:00"), catalog,
                                 weights, options, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The final report must exist and cover the pipeline end to end. The
  // registry is process-global, so this also holds under test shuffling:
  // counters only ever accumulate.
  ASSERT_FALSE(result->statusz_text.empty());
  const obs::ObsSnapshot snapshot = obs::CaptureObsSnapshot();
  EXPECT_GE(obs::SubsystemCount(snapshot), 8u)
      << result->statusz_text;
  for (const char* section :
       {"[cdi]", "[stream]", "[storage]", "[sim]", "[telemetry]", "[rules]",
        "[ops]", "[resolve]"}) {
    EXPECT_NE(result->statusz_text.find(section), std::string::npos)
        << "missing " << section << " in:\n"
        << result->statusz_text;
  }

  // The trace file is real JSON with the day span enclosing the incident
  // spans (exhaustive structural validation lives in obs_test; here we pin
  // that the wired-up run actually produces the spans).
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.is_open()) << trace_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front(), '{');
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("sim.automation_day"), std::string::npos);
  EXPECT_NE(trace.find("sim.incident"), std::string::npos);
  EXPECT_NE(trace.find("storage.checkpoint_save"), std::string::npos);

  // RunAutomationDay restored the tracer to its pre-run (disabled) state.
  EXPECT_FALSE(obs::Tracer::Global().enabled());
}

}  // namespace
}  // namespace cdibot
