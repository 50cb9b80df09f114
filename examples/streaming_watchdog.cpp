// Live intra-day stability watch. The batch watchdog (stability_watchdog)
// only sees a day once it is over; this example runs the streaming engine
// instead: events are ingested as they occur, the fleet CDI is refreshed
// hourly at the cost of recomputing only the VMs that changed, the monitor
// previews each snapshot without committing it, and a mid-day crash is
// survived through a checkpoint/restore round trip. The day ends by
// cross-checking the streaming snapshot against a full batch rerun.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "cdi/monitor.h"
#include "cdi/pipeline.h"
#include "sim/incidents.h"
#include "sim/scenario.h"
#include "storage/stream_checkpoint.h"
#include "stream/streaming_engine.h"

using namespace cdibot;

int main() {
  const EventCatalog catalog = EventCatalog::BuiltIn();
  Rng rng(42);
  FaultInjector injector(&catalog, &rng);

  FleetSpec fspec;
  fspec.regions = 1;
  fspec.azs_per_region = 2;
  fspec.clusters_per_az = 2;
  fspec.ncs_per_cluster = 4;
  fspec.vms_per_nc = 8;
  const Fleet fleet = Fleet::Build(fspec).value();

  auto ticket_model = TicketRankModel::FromCounts(
      {{"slow_io", 420}, {"packet_loss", 160}, {"vcpu_high", 230}}, 4);
  const auto weights =
      EventWeightModel::Build(std::move(ticket_model).value(), {}).value();

  const TimePoint day_start = TimePoint::Parse("2026-06-01 00:00").value();
  const Interval day(day_start, day_start + Duration::Days(1));
  const auto vms = fleet.ServiceInfos(day).value();

  // Warm the monitor with a week of quiet history so today's preview has a
  // baseline to break from.
  auto monitor = CdiMonitor::Create({.window = 3, .k = 3.0}).value();
  EventLog history_log;
  for (int d = 7; d >= 1; --d) {
    const TimePoint past = day_start - Duration::Days(d);
    EventLog log;
    (void)injector.InjectDay(fleet, past, BaselineRates().Scaled(2.0), &log);
    DailyCdiJob job(DailyCdiJob::Options{
        .log = &log, .catalog = &catalog, .weights = &weights});
    const Interval past_day(past, past + Duration::Days(1));
    auto past_result = job.Run(fleet.ServiceInfos(past_day).value(), past_day);
    if (!past_result.ok()) return 1;
    (void)monitor.IngestDay(past, *past_result);
  }

  // Today is a bad day: 10x the usual fault pressure.
  EventLog log;
  (void)injector.InjectDay(fleet, day_start, BaselineRates().Scaled(20.0),
                           &log);
  std::vector<RawEvent> today = log.Search(
      Interval(day_start - Duration::Days(1), day.end + Duration::Days(1)));
  std::sort(today.begin(), today.end(),
            [](const RawEvent& a, const RawEvent& b) { return a.time < b.time; });

  StreamingCdiOptions sopts;
  sopts.window = day;
  auto engine = StreamingCdiEngine::Create(&catalog, &weights, sopts).value();
  for (const VmServiceInfo& vm : vms) (void)engine.RegisterVm(vm);

  std::printf("streaming %zu events over %zu VMs\n\n", today.size(),
              vms.size());
  size_t fed = 0;
  TimePoint next_report = day_start + Duration::Hours(4);
  const TimePoint crash_at = day_start + Duration::Hours(11);
  bool crashed = false;
  for (const RawEvent& ev : today) {
    // Simulated process crash mid-day: persist, "restart", resume.
    if (!crashed && crash_at < ev.time) {
      crashed = true;
      // One file per process, so concurrent runs never share a checkpoint.
      const std::string path =
          (std::filesystem::temp_directory_path() /
           ("streaming_watchdog_" + std::to_string(::getpid()) + ".ckpt"))
              .string();
      const Status saved = SaveStreamCheckpoint(engine.Checkpoint(), path);
      if (!saved.ok()) {
        std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
        return 1;
      }
      auto loaded = LoadStreamCheckpoint(path);
      std::filesystem::remove(path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "load: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      auto restored =
          StreamingCdiEngine::Restore(*loaded, &catalog, &weights, sopts);
      if (!restored.ok()) {
        std::fprintf(stderr, "restore: %s\n",
                     restored.status().ToString().c_str());
        return 1;
      }
      engine = std::move(*restored);
      std::printf("[%5.1fh] crash + restore from checkpoint "
                  "(%zu events buffered, watermark intact)\n",
                  (crash_at - day_start).hours(), loaded->events.size());
    }
    (void)engine.Ingest(ev);
    ++fed;
    if (next_report < ev.time) {
      auto snap = engine.Snapshot();
      if (!snap.ok()) return 1;
      auto problems = monitor.Preview(day_start, *snap);
      std::printf("[%5.1fh] %6zu events  fleet CDI-P=%.3e  "
                  "recomputed=%zu  previewed problems=%zu\n",
                  (next_report - day_start).hours(), fed,
                  snap->fleet.performance, engine.stats().vms_recomputed,
                  problems.ok() ? problems->size() : 0);
      next_report = next_report + Duration::Hours(4);
    }
  }

  auto final_snap = engine.Snapshot();
  if (!final_snap.ok()) return 1;

  DailyCdiJob job(DailyCdiJob::Options{
      .log = &log, .catalog = &catalog, .weights = &weights});
  auto batch = job.Run(vms, day);
  if (!batch.ok()) return 1;

  std::printf("\nend of day (streaming vs batch rerun):\n");
  std::printf("  CDI-U  %.6e  vs  %.6e\n", final_snap->fleet.unavailability,
              batch->fleet.unavailability);
  std::printf("  CDI-P  %.6e  vs  %.6e\n", final_snap->fleet.performance,
              batch->fleet.performance);
  std::printf("  CDI-C  %.6e  vs  %.6e\n", final_snap->fleet.control_plane,
              batch->fleet.control_plane);
  const double drift =
      std::fabs(final_snap->fleet.performance - batch->fleet.performance);
  std::printf("  drift  %.1e (equivalence bound 1e-9)\n", drift);
  return drift < 1e-9 ? 0 : 1;
}
