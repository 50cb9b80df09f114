#ifndef CDIBOT_SIM_CLOUDBOT_LOOP_H_
#define CDIBOT_SIM_CLOUDBOT_LOOP_H_

#include "cdi/monitor.h"
#include "cdi/pipeline.h"
#include "common/rng.h"
#include "common/statusor.h"
#include "dataflow/engine.h"
#include "flow/backpressure_queue.h"
#include "flow/circuit_breaker.h"
#include "flow/watchdog.h"
#include "ops/operation_platform.h"
#include "rules/rule_engine.h"
#include "serve/heatmap.h"
#include "serve/service.h"
#include "shard/coordinator.h"
#include "sim/fleet.h"
#include "stream/streaming_engine.h"

namespace cdibot {

/// Configuration of one closed-loop CloudBot day.
struct AutomationLoopOptions {
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
  /// When true, a StreamingCdiEngine runs alongside the batch job: every
  /// event is ingested as it is emitted (incident by incident, so event
  /// times arrive out of order), an intra-day snapshot is taken after each
  /// incident, and the final snapshot's fleet CDI is reported next to the
  /// batch value (they agree to within aggregation rounding).
  bool streaming_cdi = false;
  /// Optional live watchdog. Each intra-day streaming snapshot is fed to
  /// CdiMonitor::Preview (non-committing), so emerging spikes are visible
  /// while the day is still accumulating. Borrowed; may be null.
  CdiMonitor* live_monitor = nullptr;
  /// When true (requires streaming_cdi and a checkpoint_dir), the streaming
  /// engine runs under a supervisor: after each incident's events are
  /// ingested its state is checkpointed into a StreamCheckpointStore, and
  /// at evenly spaced points the supervisor destroys the engine outright
  /// and restores it from the last good checkpoint — the paper's stance
  /// applied to the metric pipeline itself: CDI keeps being computed
  /// through crashes of its own infrastructure, and the post-restore
  /// stream still agrees with the batch job.
  bool supervise_streaming = false;
  /// Root directory of the supervisor's checkpoint store (created if
  /// missing). Required when supervise_streaming is set.
  std::string checkpoint_dir;
  /// Number of crash/restore cycles the supervisor injects across the day.
  size_t supervisor_crashes = 1;
  /// When true (requires streaming_cdi), events bound for the streaming
  /// engine pass through a flow::BackpressureQueue instead of being
  /// ingested directly: a pump drains the queue into the engine after each
  /// incident. Under overload the queue sheds low-class telemetry (never
  /// unavailability events) and the day's final snapshot reports the
  /// affected VMs as degraded; with a queue that keeps up, the day is
  /// bit-identical to the direct path (pinned by the overload differential
  /// suite).
  bool flow_control = false;
  /// Queue tuning when flow_control is set.
  flow::FlowOptions flow_options = {};
  /// Events the pump drains per incident step; 0 drains the queue fully.
  /// A small value models a slow consumer: the backlog deepens, admission
  /// control engages, and sheds become visible in the result.
  size_t flow_drain_per_step = 0;
  /// When true (requires flow_control and supervise_streaming), an
  /// injected crash is NOT restored immediately: events keep accumulating
  /// in the queue while the engine is down, and a flow::Watchdog watching
  /// the pump's heartbeats (in event time) detects the stall and drives
  /// the restore from the last good checkpoint — supervisor recovery by
  /// detection rather than by construction.
  bool watchdog_recovery = false;
  /// Heartbeat silence (event time) after which the watchdog declares the
  /// engine stalled.
  Duration watchdog_stall_timeout = Duration::Minutes(30);
  /// Per-save budget for supervisor checkpoints; zero means unbounded.
  /// Bounds how long a sick disk can stall the loop (retry sleeps are
  /// clipped to the remaining budget).
  Duration checkpoint_budget = Duration::Zero();
  /// Circuit breaker over the supervisor's checkpoint store. When enabled
  /// (failure_threshold > 0) a save rejected by the open breaker is
  /// SKIPPED (counted in checkpoints_skipped) instead of failing the day:
  /// losing a checkpoint generation degrades recovery granularity, losing
  /// the day's CDI would defeat the point.
  flow::CircuitBreakerOptions checkpoint_breaker = {};
  /// When true, a sharded fleet (a shard::ShardCoordinator over
  /// `cdi_shards` workers behind message channels) runs alongside the
  /// batch job: every event is routed to its owner shard as it is emitted
  /// and the day ends with a scatter/gather snapshot. Its fleet CDI is
  /// bit-identical to the single-node streaming engine's (the fleet fold
  /// is exact) — pinned by the sharded-equivalence suite.
  bool sharded_cdi = false;
  size_t cdi_shards = 4;
  /// Transport for the sharded fleet (requires sharded_cdi). kInProcess
  /// keeps workers as threads behind message channels; kSocketThread serves
  /// each worker thread over a real Unix-domain socket; kSocketProcess
  /// spawns `shard_worker_binary` child processes — the honest failure
  /// boundary — and requires `shard_weight_spec` so each worker rebuilds a
  /// bit-identical weight model from the recipe carried in kInit.
  shard::ShardTransportMode shard_transport =
      shard::ShardTransportMode::kInProcess;
  std::string shard_worker_binary;
  std::optional<shard::WeightSpec> shard_weight_spec;
  /// When true (requires sharded_cdi), the coordinator recuts the shard
  /// map halfway through the day's incidents: a mid-day rebalance with the
  /// stream still flowing, exercising range handoff under live traffic.
  bool shard_rebalance_midday = false;
  /// When true, the day ends with a statusz report: the result carries the
  /// rendered text and a periodic dump is logged every
  /// `statusz_every_incidents` incidents (0 = final report only).
  bool capture_statusz = false;
  size_t statusz_every_incidents = 0;
  /// When non-empty, scoped-span tracing is enabled for the duration of the
  /// run and a Chrome-trace JSON (loadable in chrome://tracing or Perfetto)
  /// is written here at the end.
  std::string trace_json_path;
  /// When true, the day ends with a fleet obs pull: every shard worker's
  /// metrics/spans are gathered over the wire and merged with this
  /// process's into result.fleet_statusz_text / fleet_statusz_json.
  /// Requires sharded_cdi over kSocketProcess — the only transport whose
  /// workers have their own obs registries; the same-process shard modes
  /// share this registry and a merge would double-count every metric.
  bool fleet_statusz = false;
  /// When non-empty (same transport requirement), workers run with tracing
  /// on (via kInit) and the day ends with one merged Chrome trace written
  /// here: a named track per process, worker clocks aligned onto the
  /// coordinator's, worker RPC spans sharing the coordinator's trace ids.
  std::string merged_trace_path;
  /// When true, every read the loop makes from its live engines — the
  /// intra-day live-monitor previews, the end-of-day streaming fleet CDI,
  /// the end-of-day sharded gather — is routed through a
  /// serve::CdiQueryService facade instead of calling Snapshot()/FleetCdi()
  /// directly. Answers are bit-identical to the direct calls (pinned by
  /// the serve equivalence suite); the result carries the facade's
  /// cache/cube/query counters.
  bool serve_reads = false;
  /// Facade tuning when serve_reads is set (ARC capacity, cube toggle).
  serve::CdiQueryServiceOptions serve_options = {};
  /// When non-empty, the day ends with a fleet × time damage heatmap over
  /// the day's event log, rows grouped by this placement dimension
  /// ("region", "az", "cluster", ...), rendered into result.heatmap_json.
  std::string heatmap_group_dim;
  /// Time-bucket columns for the heatmap.
  size_t heatmap_buckets = 24;
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
  /// Streaming-engine outputs; populated only when options.streaming_cdi.
  VmCdi fleet_cdi_streaming;
  StreamingCdiStats stream_stats;
  /// Problems the live monitor previewed across intra-day snapshots.
  size_t live_problems = 0;
  /// Supervisor-mode counters; populated only when supervise_streaming.
  size_t checkpoints_saved = 0;
  size_t crashes_injected = 0;
  size_t restores_completed = 0;
  /// Flow-control counters; populated only when options.flow_control.
  flow::ShedStats flow_stats;
  /// Convenience mirror of flow_stats.shed_total.
  size_t events_shed = 0;
  /// Watchdog counters; populated only when options.watchdog_recovery.
  size_t watchdog_stalls = 0;
  size_t watchdog_recoveries = 0;
  /// Sharded-fleet outputs; populated only when options.sharded_cdi.
  VmCdi fleet_cdi_sharded;
  shard::ShardFleetStats shard_stats;
  /// Saves rejected by the open checkpoint breaker (skipped, not failed).
  size_t checkpoints_skipped = 0;
  /// Checkpoint-breaker trips across the day.
  size_t breaker_trips = 0;
  /// Final statusz report; populated only when options.capture_statusz.
  std::string statusz_text;
  /// Fleet-merged obs reports; populated only when options.fleet_statusz.
  std::string fleet_statusz_text;
  std::string fleet_statusz_json;
  /// Serving-facade counters; populated only when options.serve_reads
  /// (summed over the engine-side and coordinator-side services).
  serve::ServeStats serve_stats;
  serve::CacheStats serve_cache_stats;
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
/// closed loop delivers — the system's purpose (Sec. II-A).
StatusOr<AutomationLoopResult> RunAutomationDay(
    const Fleet& fleet, TimePoint day_start, const EventCatalog& catalog,
    const EventWeightModel& weights, const AutomationLoopOptions& options,
    Rng* rng, dataflow::ExecContext ctx = {});

}  // namespace cdibot

#endif  // CDIBOT_SIM_CLOUDBOT_LOOP_H_
