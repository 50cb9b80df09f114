// Observability tour of the telemetry -> CDI pipeline. One supervised
// streaming CloudBot day runs with tracing on; the final statusz report
// shows every instrumented subsystem (telemetry generation, rule matching,
// operations, event resolution, CDI jobs, the streaming engine, checkpoint
// storage, chaos quarantine, the thread pool), and the run's scoped spans
// land in a Chrome-trace JSON loadable in Perfetto or chrome://tracing.
#include <cstdio>

#include "obs/statusz.h"
#include "sim/cloudbot_loop.h"
#include "sim/fleet.h"
#include "weights/event_weights.h"

using namespace cdibot;

int main(int argc, char** argv) {
  const char* trace_path = argc > 1 ? argv[1] : "observability_trace.json";

  const EventCatalog catalog = EventCatalog::BuiltIn();
  auto ticket_model = TicketRankModel::FromCounts(
      {{"slow_io", 420}, {"packet_loss", 160}, {"vcpu_high", 230}}, 4);
  const auto weights =
      EventWeightModel::Build(std::move(ticket_model).value(), {}).value();

  FleetSpec fspec;
  fspec.regions = 1;
  fspec.azs_per_region = 2;
  fspec.clusters_per_az = 2;
  fspec.ncs_per_cluster = 4;
  fspec.vms_per_nc = 8;
  const Fleet fleet = Fleet::Build(fspec).value();

  const TimePoint day_start = TimePoint::Parse("2026-06-01 00:00").value();
  Rng rng(7);

  AutomationLoopOptions options;
  options.streaming.emplace().supervisor = {
      .checkpoint_dir = "observability_ckpt", .crashes = 2};
  options.incident_probability = 0.25;
  options.obs.capture_statusz = true;
  options.obs.statusz_every_incidents = 8;
  options.obs.trace_json_path = trace_path;

  auto result =
      RunAutomationDay(fleet, day_start, catalog, weights, options, &rng);
  if (!result.ok()) {
    std::fprintf(stderr, "day failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("incidents=%zu migrations=%zu checkpoints=%zu restores=%zu\n",
              result->incidents, result->migrations_executed,
              result->checkpoints_saved, result->restores_completed);
  std::printf("batch CDI_u=%.4f streaming CDI_u=%.4f\n",
              result->fleet_cdi.unavailability,
              result->fleet_cdi_streaming.unavailability);
  std::printf("\n%s\n", result->statusz_text.c_str());
  std::printf("trace written to %s (open in Perfetto or chrome://tracing)\n",
              trace_path);
  return 0;
}
