#ifndef CDIBOT_SIM_CLOUDBOT_LOOP_H_
#define CDIBOT_SIM_CLOUDBOT_LOOP_H_

#include "cdi/pipeline.h"
#include "common/rng.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "flow/backpressure_queue.h"
#include "ops/operation_platform.h"
#include "rules/rule_engine.h"
#include "serve/heatmap.h"
#include "serve/service.h"
#include "shard/coordinator.h"
#include "sim/fleet.h"
#include "stream/streaming_engine.h"

namespace cdibot {

/// Configuration of one closed-loop CloudBot day. Each optional block
/// switches on one shadow topology or mode, and the blocks nest so that a
/// mode which only makes sense inside another cannot be spelled outside
/// it. The few rules that cut across blocks live in Validate().
struct AutomationLoopOptions {
  /// The streaming engine runs under a supervisor: after each incident's
  /// events are ingested its state is checkpointed into a
  /// StreamCheckpointStore, and at evenly spaced points the supervisor
  /// destroys the engine outright and restores it from the last good
  /// checkpoint. This is the paper's stance applied to the metric pipeline
  /// itself: CDI keeps being computed through crashes of its own
  /// infrastructure, and the post-restore stream still equals the batch
  /// job bit for bit.
  struct Supervisor {
    /// Root directory of the checkpoint store (created if missing).
    std::string checkpoint_dir;
    /// Crash/restore cycles injected across the day.
    size_t crashes = 1;
    /// When set, an injected crash is NOT restored at once: events keep
    /// accumulating in the flow queue while the engine is down, and a
    /// flow::Watchdog watching the pump's heartbeats (in event time)
    /// declares a stall after this much silence and drives the restore.
    /// Recovery by detection rather than by construction.
    std::optional<Duration> watchdog_stall_timeout{};
  };
  /// Events bound for the streaming engine pass through a
  /// flow::BackpressureQueue instead of being ingested directly; a pump
  /// drains the queue into the engine after each incident. Under overload
  /// the queue sheds low-class telemetry (never unavailability events) and
  /// the day's final result reports the affected VMs as degraded. With a
  /// queue that keeps up, the day is bit-identical to the direct path.
  struct Flow {
    flow::FlowOptions queue = {};
    /// Events the pump drains per incident step; 0 drains the queue fully.
    /// A small value models a slow consumer: the backlog deepens,
    /// admission control engages, and sheds become visible in the result.
    size_t drain_per_step = 0;
  };
  /// A StreamingCdiEngine runs alongside the batch job: every event is
  /// ingested as it is emitted (incident by incident, so event times arrive
  /// out of order), and the day's fleet CDI read through the
  /// serve::CdiQueryService facade is reported next to the batch value.
  /// The two are bit-identical.
  struct Streaming {
    std::optional<Supervisor> supervisor;
    std::optional<Flow> flow;
  };
  /// A sharded fleet (a shard::ShardCoordinator over `shards` workers)
  /// runs alongside the batch job: every event is routed to its owner
  /// shard as it is emitted, and the day ends with a scatter/gather read
  /// through the facade. Its fleet CDI is bit-identical to the batch job's
  /// (the fleet fold is exact).
  struct Sharded {
    size_t shards = 4;
    /// kInProcess keeps workers as threads behind message channels;
    /// kSocketThread serves each worker thread over a real Unix-domain
    /// socket; kSocketProcess spawns `worker_binary` child processes (the
    /// honest failure boundary), each rebuilding a bit-identical weight
    /// model from `weight_spec`, which travels in kInit.
    shard::ShardTransportMode transport =
        shard::ShardTransportMode::kInProcess;
    std::string worker_binary{};
    std::optional<shard::WeightSpec> weight_spec{};
    /// Recut the shard map halfway through the day's incidents: a mid-day
    /// rebalance with the stream still flowing, exercising range handoff
    /// under live traffic.
    bool rebalance_midday = false;
  };
  /// What the day reports about itself.
  struct Obs {
    /// The day ends with a statusz report in result.statusz_text, and a
    /// periodic dump is logged every `statusz_every_incidents` incidents
    /// (0 = final report only).
    bool capture_statusz = false;
    size_t statusz_every_incidents = 0;
    /// When non-empty, scoped-span tracing is enabled for the duration of
    /// the run and a Chrome-trace JSON (loadable in chrome://tracing or
    /// Perfetto) is written here at the end.
    std::string trace_json_path;
    /// The day ends with a fleet obs pull: every shard worker's
    /// metrics/spans are gathered over the wire and merged with this
    /// process's into result.fleet_statusz_text / fleet_statusz_json.
    bool fleet_statusz = false;
    /// When non-empty, workers run with tracing on (via kInit) and the day
    /// ends with one merged Chrome trace written here: a named track per
    /// process, worker clocks aligned onto the coordinator's, worker RPC
    /// spans sharing the coordinator's trace ids.
    std::string merged_trace_path;
  };

  /// Whether the Rule Engine + Operation Platform actually act. With
  /// automation off, faults run their natural course (the pre-CloudBot
  /// world); with it on, matched rules live-migrate VMs off faulty hosts.
  bool automation_enabled = true;
  /// Rule evaluation cadence.
  Duration tick = Duration::Minutes(5);
  /// Probability that a VM develops a NIC-degradation incident this day.
  double incident_probability = 0.08;
  /// Natural incident duration when nothing intervenes.
  Duration natural_duration_mean = Duration::Hours(4);
  /// Live-migration brown-out while evacuating a VM.
  Duration migration_brownout = Duration::Seconds(3);
  std::optional<Streaming> streaming;
  std::optional<Sharded> sharded;
  Obs obs;
  /// When non-empty, the day ends with a fleet x time damage heatmap over
  /// the day's event log, rows grouped by this placement dimension
  /// ("region", "az", "cluster", ...), rendered into result.heatmap_json
  /// with `heatmap_buckets` time columns.
  std::string heatmap_group_dim;
  size_t heatmap_buckets = 24;

  /// The cross-block rules: a positive tick; a supervisor needs a
  /// checkpoint directory; watchdog recovery needs the flow queue to buffer
  /// the outage; fleet obs (fleet_statusz, merged_trace_path) needs shard
  /// workers over kSocketProcess, the only transport whose workers have
  /// their own obs registries (the same-process shard modes share this
  /// registry, so a merge would double-count every metric).
  Status Validate() const;
};

/// Outcome of a simulated day.
struct AutomationLoopResult {
  /// The fleet CDI computed by the daily job over the day's real events.
  VmCdi fleet_cdi;
  size_t incidents = 0;
  size_t rule_matches = 0;
  size_t migrations_executed = 0;
  /// Matched migrations that could not run because the placement scheduler
  /// found no feasible destination (locked hosts, capacity, architecture);
  /// those incidents run their natural course.
  size_t placements_failed = 0;
  /// Issue time eliminated by automation (natural minus actual durations).
  Duration damage_avoided;
  /// Streaming-engine outputs; populated only with options.streaming.
  VmCdi fleet_cdi_streaming;
  StreamingCdiStats stream_stats;
  /// Supervisor counters; populated only with a streaming supervisor.
  size_t checkpoints_saved = 0;
  size_t crashes_injected = 0;
  size_t restores_completed = 0;
  /// Flow-control counters; populated only with a streaming flow queue.
  flow::ShedStats flow_stats;
  /// Watchdog counters; populated only with watchdog recovery.
  size_t watchdog_stalls = 0;
  size_t watchdog_recoveries = 0;
  /// Sharded-fleet outputs; populated only with options.sharded.
  VmCdi fleet_cdi_sharded;
  shard::ShardFleetStats shard_stats;
  /// Final statusz report; populated only with options.obs.capture_statusz.
  std::string statusz_text;
  /// Fleet-merged obs reports; populated only with options.obs.fleet_statusz.
  std::string fleet_statusz_text;
  std::string fleet_statusz_json;
  /// Read-facade counters, summed over the streaming and sharded services.
  serve::ServeStats serve_stats;
  /// Heatmap endpoint payload; populated when options.heatmap_group_dim is
  /// non-empty.
  std::string heatmap_json;
};

/// Runs one day of the full CloudBot control loop on a synthetic fleet:
/// injected NIC incidents emit nic_flapping + per-minute slow_io events;
/// every tick the Rule Engine evaluates the active events of each affected
/// VM; matches submit Example 1's actions to the Operation Platform; the
/// PlacementScheduler picks a feasible destination host (capacity, locks,
/// and architecture respected — a migration with nowhere to go does not
/// run); an executed live migration truncates the incident (plus a short
/// brown-out event). The day's events then flow through the standard daily
/// CDI job.
///
/// Comparing automation on vs off isolates the CDI improvement CloudBot's
/// closed loop delivers — the system's purpose (Sec. II-A). `pool`, when
/// given, is borrowed by the daily job and the streaming shadow.
StatusOr<AutomationLoopResult> RunAutomationDay(
    const Fleet& fleet, TimePoint day_start, const EventCatalog& catalog,
    const EventWeightModel& weights, const AutomationLoopOptions& options,
    Rng* rng, ThreadPool* pool = nullptr);

}  // namespace cdibot

#endif  // CDIBOT_SIM_CLOUDBOT_LOOP_H_
