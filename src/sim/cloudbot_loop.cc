#include "sim/cloudbot_loop.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/fleet.h"
#include "obs/metrics.h"
#include "obs/statusz.h"
#include "obs/trace.h"
#include "flow/watchdog.h"
#include "ops/placement.h"
#include "storage/checkpoint_store.h"

namespace cdibot {
namespace {

// One in-flight NIC incident on a VM.
struct Incident {
  std::string vm_id;
  std::string nc_id;
  TimePoint start;
  TimePoint natural_end;  // when it would end without intervention
  TimePoint actual_end;   // truncated by automation when it acts
  bool migrated = false;
};

RawEvent MakeEvent(const std::string& name, TimePoint time,
                   const std::string& target, Severity level,
                   Duration expire = Duration::Hours(1)) {
  // Every event the simulated day emits passes through here, so this is
  // the telemetry-generation tap for statusz.
  static obs::Counter* emitted = obs::MetricsRegistry::Global().GetCounter(
      "telemetry.events_emitted");
  emitted->Increment();
  RawEvent ev;
  ev.name = name;
  ev.time = time;
  ev.target = target;
  ev.level = level;
  ev.expire_interval = expire;
  return ev;
}

/// Enables the global tracer for one run when asked and restores its prior
/// state on every exit path, so a failed day leaves a caller's tracer as it
/// found it.
class ScopedTracing {
 public:
  explicit ScopedTracing(bool want)
      : owned_(want && !obs::Tracer::Global().enabled()) {
    if (owned_) obs::Tracer::Global().Enable();
  }
  ~ScopedTracing() { End(); }
  ScopedTracing(const ScopedTracing&) = delete;
  ScopedTracing& operator=(const ScopedTracing&) = delete;

  /// Restores the prior state now instead of at scope exit.
  void End() {
    if (owned_) obs::Tracer::Global().Disable();
    owned_ = false;
  }

 private:
  bool owned_;
};

}  // namespace

Status AutomationLoopOptions::Validate() const {
  if (tick.millis() <= 0) {
    return Status::InvalidArgument("tick must be positive");
  }
  if (streaming.has_value() && streaming->supervisor.has_value()) {
    const Supervisor& sup = *streaming->supervisor;
    if (sup.checkpoint_dir.empty()) {
      return Status::InvalidArgument(
          "a streaming supervisor needs a checkpoint_dir");
    }
    if (sup.watchdog_stall_timeout.has_value() &&
        !streaming->flow.has_value()) {
      return Status::InvalidArgument(
          "watchdog recovery needs a streaming flow queue to buffer the "
          "outage");
    }
  }
  if ((obs.fleet_statusz || !obs.merged_trace_path.empty()) &&
      (!sharded.has_value() ||
       sharded->transport != shard::ShardTransportMode::kSocketProcess)) {
    return Status::InvalidArgument(
        "fleet_statusz/merged_trace_path need sharded workers over "
        "kSocketProcess: same-process shard modes share the coordinator's "
        "obs registry, so a fleet merge would double-count every metric");
  }
  return Status::OK();
}

StatusOr<AutomationLoopResult> RunAutomationDay(
    const Fleet& fleet, TimePoint day_start, const EventCatalog& catalog,
    const EventWeightModel& weights, const AutomationLoopOptions& options,
    Rng* rng, ThreadPool* pool) {
  CDIBOT_RETURN_IF_ERROR(options.Validate());
  using Supervisor = AutomationLoopOptions::Supervisor;
  using FlowConfig = AutomationLoopOptions::Flow;
  const Supervisor* supervisor =
      options.streaming.has_value() && options.streaming->supervisor
          ? &*options.streaming->supervisor
          : nullptr;
  const FlowConfig* flow_config =
      options.streaming.has_value() && options.streaming->flow
          ? &*options.streaming->flow
          : nullptr;
  const bool fleet_obs =
      options.obs.fleet_statusz || !options.obs.merged_trace_path.empty();
  // A merged fleet trace needs the coordinator side traced too, not just
  // the workers.
  ScopedTracing tracing(!options.obs.trace_json_path.empty() ||
                        !options.obs.merged_trace_path.empty());
  // Held in an optional so the day span can be closed before the trace file
  // is written (a still-open span would be missing from the export).
  std::optional<obs::ScopedSpan> day_span;
  day_span.emplace("sim.automation_day");
  const Interval day(day_start, day_start + Duration::Days(1));

  // --- Plan the day's incidents ---------------------------------------------
  std::vector<Incident> incidents;
  for (const VmInfo& vm : fleet.topology().vms()) {
    if (!rng->Bernoulli(options.incident_probability)) continue;
    Incident inc;
    inc.vm_id = vm.vm_id;
    inc.nc_id = vm.nc_id;
    // Start early enough that the natural course fits the day (keeps the
    // on/off comparison apples-to-apples).
    const int64_t latest_start =
        day.end.millis() - options.natural_duration_mean.millis() * 2;
    inc.start = TimePoint::FromMillis(
        rng->UniformInt(day.start.millis(),
                        std::max(day.start.millis() + 1, latest_start)));
    const double hours = std::max(
        0.25, rng->Normal(options.natural_duration_mean.hours(),
                          options.natural_duration_mean.hours() / 4.0));
    inc.natural_end = inc.start + Duration::Millis(static_cast<int64_t>(
                                      hours * 3600.0 * 1000.0));
    if (day.end < inc.natural_end) inc.natural_end = day.end;
    inc.actual_end = inc.natural_end;
    incidents.push_back(std::move(inc));
  }
  // Process the day in event-time order. The loop's clock (sim_now, the
  // watchdog's heartbeat source) is the frontier of incident end times;
  // handling incidents in fleet-topology order would let one late-ending
  // incident freeze that frontier for the rest of the day.
  std::stable_sort(incidents.begin(), incidents.end(),
                   [](const Incident& a, const Incident& b) {
                     return a.start < b.start;
                   });

  CDIBOT_ASSIGN_OR_RETURN(RuleEngine engine, RuleEngine::BuiltIn());
  OperationPlatform platform;
  PlacementScheduler scheduler(&fleet.topology(), &platform);
  AutomationLoopResult result;
  result.incidents = incidents.size();

  CDIBOT_ASSIGN_OR_RETURN(const auto vms, fleet.ServiceInfos(day));

  // Optional shadow engine: sees every event the log sees, live.
  StreamingCdiOptions stream_options;
  stream_options.window = day;
  stream_options.pool = pool;
  std::optional<StreamingCdiEngine> stream;
  if (options.streaming.has_value()) {
    CDIBOT_ASSIGN_OR_RETURN(
        StreamingCdiEngine engine_impl,
        StreamingCdiEngine::Create(&catalog, &weights, stream_options));
    stream.emplace(std::move(engine_impl));
    for (const VmServiceInfo& vm : vms) {
      CDIBOT_RETURN_IF_ERROR(stream->RegisterVm(vm));
    }
  }
  // Optional sharded fleet: the same live event feed, but routed through a
  // ShardCoordinator to per-range shard workers over message channels. Its
  // end-of-day gather is compared against the batch and streaming values.
  std::unique_ptr<shard::ShardCoordinator> sharded;
  if (options.sharded.has_value()) {
    const AutomationLoopOptions::Sharded& so = *options.sharded;
    shard::ShardTopologyOptions topo;
    topo.num_shards = so.shards;
    topo.engine.window = day;
    topo.transport = so.transport;
    topo.worker_binary = so.worker_binary;
    topo.weight_spec = so.weight_spec;
    topo.worker_tracing = !options.obs.merged_trace_path.empty();
    CDIBOT_ASSIGN_OR_RETURN(
        sharded, shard::ShardCoordinator::Create(&catalog, &weights,
                                                 std::move(topo)));
    CDIBOT_RETURN_IF_ERROR(sharded->RegisterVms(vms));
  }
  bool shards_rebalanced = false;
  // Flow control: instead of ingesting directly, events enter a bounded
  // backpressure queue; a pump drains it into the engine after each
  // incident. Sheds are tallied per target and reported to the engine
  // before the day's final results so every shed surfaces as a degraded
  // DataQuality annotation rather than a silent gap.
  std::optional<flow::BackpressureQueue> queue;
  std::map<std::string, uint64_t> shed_counts;
  if (flow_config != nullptr) {
    queue.emplace(flow_config->queue);
    queue->set_shed_callback(
        [&shed_counts](const RawEvent& ev, flow::FlowClass) {
          ++shed_counts[ev.target];
        });
  }
  auto flow_class_for = [&catalog](const RawEvent& ev) {
    const auto handle = catalog.FindHandle(ev.name);
    return handle.has_value()
               ? flow::FlowClassForCategory(handle->spec->category)
               : flow::FlowClass::kPerformance;
  };
  auto feed_stream = [&](const RawEvent& ev) -> Status {
    if (sharded != nullptr) {
      CDIBOT_RETURN_IF_ERROR(sharded->Ingest(ev));
    }
    if (queue.has_value()) {
      // TryPush never returns kQueueFull here: the sim emits no
      // unavailability-class events at hard capacity without sheddable
      // items queued, and sheddable classes are admitted or shed.
      queue->TryPush(ev, flow_class_for(ev));
      return Status::OK();
    }
    if (!stream.has_value()) return Status::OK();
    return stream->Ingest(ev);
  };
  // Tracks the frontier of emitted event time; heartbeats and watchdog
  // polls run on this clock so stall detection is deterministic.
  TimePoint sim_now = day.start;
  std::optional<flow::Watchdog> watchdog;
  if (supervisor != nullptr && supervisor->watchdog_stall_timeout) {
    watchdog.emplace("stream_pump",
                     flow::WatchdogOptions{
                         .stall_timeout = *supervisor->watchdog_stall_timeout});
  }
  // Drains the queue into the engine (bounded per step when configured).
  // A dead engine leaves the backlog in place — the queue, not the
  // engine, is the day's buffer of record while the supervisor reacts.
  auto pump = [&]() -> Status {
    if (!queue.has_value() || !stream.has_value()) return Status::OK();
    const bool unbounded = flow_config->drain_per_step == 0;
    size_t budget = flow_config->drain_per_step;
    RawEvent ev;
    while ((unbounded || budget-- > 0) && queue->TryPop(&ev)) {
      CDIBOT_RETURN_IF_ERROR(stream->Ingest(ev));
    }
    if (watchdog.has_value()) watchdog->Heartbeat(sim_now);
    return Status::OK();
  };

  // Supervisor mode: checkpoint after every incident and crash/restore the
  // engine at evenly spaced points across the day.
  std::optional<StreamCheckpointStore> store;
  std::set<size_t> crash_after;
  if (supervisor != nullptr) {
    CDIBOT_ASSIGN_OR_RETURN(
        StreamCheckpointStore opened,
        StreamCheckpointStore::Open(supervisor->checkpoint_dir));
    store.emplace(std::move(opened));
    const size_t n = incidents.size();
    const size_t k = std::min(supervisor->crashes, n);
    for (size_t j = 1; j <= k; ++j) {
      crash_after.insert(j * n / (k + 1));
    }
  }
  // Brings a crashed engine back from the last good checkpoint.
  auto restore_engine = [&]() -> Status {
    CDIBOT_ASSIGN_OR_RETURN(const StreamCheckpoint ckpt, store->LoadLastGood());
    CDIBOT_ASSIGN_OR_RETURN(
        StreamingCdiEngine revived,
        StreamingCdiEngine::Restore(ckpt, &catalog, &weights, stream_options));
    stream.emplace(std::move(revived));
    ++result.restores_completed;
    if (watchdog.has_value()) watchdog->NoteRecovery();
    return Status::OK();
  };

  EventLog log;
  std::map<std::string, std::string> vm_to_nc;

  static obs::Counter* incidents_counter =
      obs::MetricsRegistry::Global().GetCounter("sim.incidents");
  static obs::Counter* matches_counter =
      obs::MetricsRegistry::Global().GetCounter("sim.rule_matches");
  static obs::Counter* migrations_counter =
      obs::MetricsRegistry::Global().GetCounter("sim.migrations_executed");
  static obs::Counter* placement_failures_counter =
      obs::MetricsRegistry::Global().GetCounter("sim.placements_failed");
  incidents_counter->Add(incidents.size());

  // --- Drive each incident through the loop ---------------------------------
  for (size_t inc_index = 0; inc_index < incidents.size(); ++inc_index) {
    TRACE_SPAN("sim.incident");
    Incident& inc = incidents[inc_index];
    vm_to_nc[inc.vm_id] = inc.nc_id;
    // The NIC flap is logged once at the incident start (Example 1).
    RawEvent flap =
        MakeEvent("nic_flapping", inc.start, inc.vm_id, Severity::kCritical);
    log.Append(flap);
    CDIBOT_RETURN_IF_ERROR(feed_stream(flap));

    // Emit slow_io minute by minute; after each tick boundary, let the rule
    // engine look at the events extracted so far.
    std::vector<RawEvent> vm_events = {std::move(flap)};
    TimePoint next_tick =
        inc.start + options.tick -
        Duration::Millis(inc.start.millis() % options.tick.millis());
    TimePoint t = inc.start + Duration::Minutes(1);
    while (t <= inc.actual_end) {
      RawEvent ev =
          MakeEvent("slow_io", t, inc.vm_id, Severity::kCritical);
      log.Append(ev);
      CDIBOT_RETURN_IF_ERROR(feed_stream(ev));
      vm_events.push_back(std::move(ev));

      if (t >= next_tick) {
        next_tick += options.tick;
        auto matches = engine.MatchEvents(vm_events, inc.vm_id, t);
        if (!matches.empty()) {
          ++result.rule_matches;
          matches_counter->Increment();
          if (options.automation_enabled && !inc.migrated) {
            // The migration needs somewhere to go: locked hosts, capacity
            // and pool architecture all constrain the choice. (The faulty
            // host gets locked by this very batch, so destinations on it
            // are already impossible for later incidents too.)
            auto placement = scheduler.ChooseDestination(inc.vm_id);
            if (!placement.ok()) {
              ++result.placements_failed;
              placement_failures_counter->Increment();
              continue;
            }
            CDIBOT_ASSIGN_OR_RETURN(
                auto requests,
                platform.RequestsFromMatch(matches.front(), inc.nc_id));
            const auto records =
                platform.Submit(std::move(requests), vm_to_nc);
            for (const ActionRecord& rec : records) {
              if (rec.request.type == ActionType::kLiveMigration &&
                  rec.outcome == ActionOutcome::kExecuted) {
                ++result.migrations_executed;
                migrations_counter->Increment();
                inc.migrated = true;
                inc.actual_end = t;
                // Migration brown-out: a short logged-duration event.
                RawEvent brownout = MakeEvent(
                    "live_migration", t + options.migration_brownout,
                    inc.vm_id, Severity::kWarning);
                brownout.attrs["duration_ms"] = StrFormat(
                    "%lld",
                    static_cast<long long>(
                        options.migration_brownout.millis()));
                log.Append(brownout);
                CDIBOT_RETURN_IF_ERROR(feed_stream(brownout));
              }
            }
          }
        }
      }
      t += Duration::Minutes(1);
    }
    result.damage_avoided += inc.natural_end - inc.actual_end;
    if (sim_now < inc.actual_end) sim_now = inc.actual_end;

    // Flow control: drain this incident's events from the queue into the
    // engine (if it is alive). With the engine down the backlog simply
    // deepens — nothing is lost below the shed policy.
    CDIBOT_RETURN_IF_ERROR(pump());

    // Mid-day shard rebalance: recut the map and hand ranges off while the
    // rest of the day's traffic is still coming — exactly once, at the
    // halfway incident.
    if (sharded != nullptr && options.sharded->rebalance_midday &&
        !shards_rebalanced && inc_index + 1 >= (incidents.size() + 1) / 2) {
      shards_rebalanced = true;
      CDIBOT_RETURN_IF_ERROR(sharded->Rebalance());
    }

    // Supervisor: persist the engine's durable state, then possibly kill
    // it. Without watchdog recovery the engine is brought back from disk
    // immediately (crash-right-after-checkpoint, so no ingested event is
    // lost and the day's final streaming CDI still equals the batch job —
    // the recovery suite pins this). With watchdog recovery the crash goes
    // UNHANDLED here: the backpressure queue buffers the traffic and the
    // watchdog below detects the silence and restores.
    if (store.has_value() && stream.has_value()) {
      CDIBOT_RETURN_IF_ERROR(store->Save(stream->Checkpoint()));
      ++result.checkpoints_saved;
      if (crash_after.count(inc_index) > 0) {
        stream.reset();  // the "crash": all in-memory state is gone
        ++result.crashes_injected;
        if (!watchdog.has_value()) {
          CDIBOT_RETURN_IF_ERROR(restore_engine());
        }
      }
    }

    // Watchdog: with the engine down the pump goes silent; once the event
    // clock outruns the last heartbeat by the stall timeout, the
    // supervisor restores from the last good checkpoint and the pump
    // drains the backlog that accumulated during the outage.
    if (watchdog.has_value() && watchdog->Poll(sim_now) &&
        !stream.has_value()) {
      CDIBOT_RETURN_IF_ERROR(restore_engine());
      CDIBOT_RETURN_IF_ERROR(pump());
    }

    // Periodic statusz dump while the day is in flight.
    if (options.obs.capture_statusz &&
        options.obs.statusz_every_incidents > 0 &&
        (inc_index + 1) % options.obs.statusz_every_incidents == 0) {
      CDIBOT_LOG(Info) << "statusz after incident " << (inc_index + 1)
                       << " of " << incidents.size() << ":\n"
                       << obs::RenderStatuszText(obs::CaptureObsSnapshot());
    }
  }

  // --- End-of-day flow drain -------------------------------------------------
  if (queue.has_value()) {
    // A crash close to the day's end can leave the engine dead with the
    // stall window not yet elapsed; the day boundary is itself a deadline,
    // so force the restore now rather than lose the backlog.
    if (!stream.has_value() && store.has_value()) {
      CDIBOT_RETURN_IF_ERROR(restore_engine());
    }
    // Final drain ignores the per-step budget: the day is over and the
    // remaining backlog must land before results are read.
    if (stream.has_value()) {
      RawEvent ev;
      while (queue->TryPop(&ev)) {
        CDIBOT_RETURN_IF_ERROR(stream->Ingest(ev));
      }
      // Surface every shed as a degraded DataQuality annotation on the
      // affected VM — the day's CDI is partial-but-honest, never silently
      // short.
      for (const auto& [target, count] : shed_counts) {
        stream->RecordShed(target, count);
      }
    }
    result.flow_stats = queue->stats();
  }
  if (watchdog.has_value()) {
    result.watchdog_stalls = watchdog->stats().stalls;
    result.watchdog_recoveries = watchdog->stats().recoveries;
  }

  // --- Evaluate the day with the standard pipeline ---------------------------
  DailyCdiJob job(DailyCdiJob::Options{.log = &log,
                                       .catalog = &catalog,
                                       .weights = &weights,
                                       .pool = pool});
  CDIBOT_ASSIGN_OR_RETURN(const DailyCdiResult daily, job.Run(vms, day));
  result.fleet_cdi = daily.fleet;

  // Every live-engine read goes through the one read facade. A fresh
  // fleet query is exactly the source's settled snapshot (same pull, same
  // fold, same bits) packaged as the response every consumer gets.
  auto read_fleet = [&result](serve::CdiReadSource* source) -> StatusOr<VmCdi> {
    serve::CdiQueryService service(source);
    serve::CdiQuery q;
    q.consistency = serve::Consistency::kFresh;
    CDIBOT_ASSIGN_OR_RETURN(const serve::CdiQueryResponse resp,
                            service.Query(q));
    const serve::ServeStats s = service.stats();
    result.serve_stats.queries += s.queries;
    result.serve_stats.cache_hits += s.cache_hits;
    result.serve_stats.cube_answers += s.cube_answers;
    result.serve_stats.source_pulls += s.source_pulls;
    result.serve_stats.deadline_rejections += s.deadline_rejections;
    return resp.fleet;
  };
  if (stream.has_value()) {
    serve::EngineSource source(&*stream);
    CDIBOT_ASSIGN_OR_RETURN(result.fleet_cdi_streaming, read_fleet(&source));
    result.stream_stats = stream->stats();
  }
  if (sharded != nullptr) {
    serve::CoordinatorSource source(sharded.get());
    CDIBOT_ASSIGN_OR_RETURN(result.fleet_cdi_sharded, read_fleet(&source));
    result.shard_stats = sharded->stats();
  }

  day_span.reset();
  // Fleet obs pull before any trace export: the day span above is closed
  // (an open span never records), and the pull itself must run while the
  // coordinator still holds live sessions to its workers.
  if (fleet_obs && sharded != nullptr) {
    const bool pull_spans = !options.obs.merged_trace_path.empty();
    CDIBOT_ASSIGN_OR_RETURN(std::vector<obs::ProcessObs> workers,
                            sharded->PullWorkerObs(pull_spans));
    const obs::FleetObsSnapshot fleet_snap =
        obs::CaptureFleetObsSnapshot(std::move(workers));
    if (options.obs.fleet_statusz) {
      result.fleet_statusz_text = obs::RenderFleetStatuszText(fleet_snap);
      result.fleet_statusz_json = obs::RenderFleetStatuszJson(fleet_snap);
    }
    if (!options.obs.merged_trace_path.empty()) {
      std::string trace_error;
      if (!obs::WriteMergedChromeTrace(fleet_snap,
                                       options.obs.merged_trace_path,
                                       &trace_error)) {
        CDIBOT_LOG(Warning) << "could not write merged trace to "
                            << options.obs.merged_trace_path << ": "
                            << trace_error;
      }
    }
  }
  if (!options.obs.trace_json_path.empty()) {
    std::string trace_error;
    if (!obs::Tracer::Global().WriteChromeTrace(options.obs.trace_json_path,
                                                &trace_error)) {
      CDIBOT_LOG(Warning) << "could not write trace to "
                          << options.obs.trace_json_path << ": "
                          << trace_error;
    }
  }
  tracing.End();
  if (options.obs.capture_statusz) {
    result.statusz_text = obs::RenderStatuszText(obs::CaptureObsSnapshot());
  }

  // Heatmap endpoint: the day's damage grid, rendered straight off the
  // event log's SoA columns (no materialization, no period resolver).
  if (!options.heatmap_group_dim.empty()) {
    std::map<std::string, Placement> dims_by_target;
    for (const VmServiceInfo& vm : vms) dims_by_target[vm.vm_id] = vm.dims;
    serve::HeatmapSpec spec;
    spec.window = day;
    spec.buckets = options.heatmap_buckets;
    spec.group_dim = options.heatmap_group_dim;
    CDIBOT_ASSIGN_OR_RETURN(
        const serve::HeatmapGrid grid,
        serve::BuildHeatmap(log.QueryAll(day), catalog, dims_by_target, spec));
    result.heatmap_json = serve::RenderHeatmapJson(spec, grid);
  }

  return result;
}

}  // namespace cdibot
