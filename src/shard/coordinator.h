#ifndef CDIBOT_SHARD_COORDINATOR_H_
#define CDIBOT_SHARD_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/retry.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "shard/channel.h"
#include "shard/host.h"
#include "shard/message.h"
#include "shard/shard_map.h"
#include "shard/socket_transport.h"

namespace cdibot::shard {

/// How the coordinator reaches its workers.
enum class ShardTransportMode {
  /// Worker threads behind in-process channels (the PR-6 topology).
  kInProcess,
  /// Worker threads behind real Unix-domain sockets: wire framing, torn
  /// frames, reconnects — without process-spawn cost.
  kSocketThread,
  /// shard_worker child processes behind Unix-domain sockets: the honest
  /// failure boundary (kill -9, zombies, half-written frames).
  kSocketProcess,
};

/// Reconnect/session tuning. Defaults suit a quiet local network; the
/// chaos suite raises attempt budgets and sets a per-attempt call timeout
/// so swallowed responses retry instead of hanging.
struct ShardSessionOptions {
  /// Full-jitter exponential backoff between reconnect dials.
  RetryOptions reconnect_backoff = {
      .max_attempts = 10,
      .initial_backoff = Duration::Millis(2),
      .backoff_multiplier = 2.0,
      .max_backoff = Duration::Millis(200),
  };
  /// Budget for one dial + handshake step.
  Duration connect_timeout = Duration::Seconds(5);
  /// Per-attempt response timeout. Zero means attempts wait out the
  /// caller's overall deadline (in-process semantics: the only way to miss
  /// a response is a dead peer). Non-zero bounds each attempt so a
  /// response swallowed by the network turns into a retry of the same
  /// request id — the worker's session dedup makes the retry exact.
  Duration call_timeout;
  /// Attempts per logical call (send + response), counting the first.
  size_t max_call_attempts = 8;
  /// Heartbeat probe period; zero disables the heartbeat thread.
  Duration heartbeat_interval;
  /// Response budget for one heartbeat probe.
  Duration heartbeat_timeout = Duration::Seconds(2);
};

/// Topology and transport configuration for a sharded fleet.
struct ShardTopologyOptions {
  size_t num_shards = 4;
  /// Per-shard engine configuration (window required). Every worker gets a
  /// copy; `engine.pool`, if set, is shared across workers and must outlive
  /// the coordinator (in-process and thread modes only — a child process
  /// cannot borrow it and builds its own).
  StreamingCdiOptions engine;

  ShardTransportMode transport = ShardTransportMode::kInProcess;
  /// Directory for the per-shard Unix sockets (socket modes). Empty: the
  /// coordinator creates a private temp directory and removes it on
  /// destruction.
  std::string socket_dir;
  /// Path to the shard_worker binary (kSocketProcess only).
  std::string worker_binary;
  /// Weight-model recipe sent in kInit. Required for kSocketProcess (a
  /// child process cannot borrow the coordinator's model); optional
  /// elsewhere (workers fall back to the injected model).
  std::optional<WeightSpec> weight_spec;
  /// Sent in kInit: turns each worker's tracer on so its spans are there
  /// to pull when the coordinator assembles a merged fleet trace.
  bool worker_tracing = false;
  ShardSessionOptions session;
  SocketTransportOptions socket;
  /// Chaos hook: wraps every freshly dialed socket transport (socket modes
  /// only). See tests/net_chaos.h.
  SocketDecorator transport_decorator;
};

/// Coordinator-side counters (shard.* metrics mirror these).
struct ShardFleetStats {
  size_t num_shards = 0;
  size_t shards_alive = 0;
  uint64_t gathers = 0;
  /// Gathers that completed with at least one shard missing (degraded
  /// DataQuality on the merged result).
  uint64_t degraded_gathers = 0;
  uint64_t rebalances = 0;
  uint64_t vms_moved = 0;
  uint64_t shard_failures = 0;
  uint64_t shards_recovered = 0;
  uint64_t events_routed = 0;
  uint64_t batches_flushed = 0;
  /// Transport sessions established beyond each shard's first (dials that
  /// followed a dropped connection or a respawn).
  uint64_t reconnects = 0;
  /// Sessions where the worker's engine survived (connection loss only) —
  /// nothing to replay beyond what dedup skips.
  uint64_t sessions_resumed = 0;
  /// Sessions rebuilt from scratch: init + checkpoint restore + outbox
  /// replay (fresh or respawned worker).
  uint64_t sessions_restored = 0;
  /// Per-call attempt retries after a failed/timed-out attempt.
  uint64_t call_retries = 0;
  uint64_t heartbeats = 0;
  uint64_t heartbeat_failures = 0;
  /// Global event-time watermark: min over per-shard watermarks (a dead
  /// shard pins it at its last reported value).
  TimePoint min_watermark;
};

/// Fleet-level CDI over N shard workers behind message-passing transports.
///
/// The coordinator owns the shard map (contiguous VM ranges), routes every
/// registration/event/manifest to its owner shard as serialized frames,
/// and answers fleet queries by scatter/gather: each shard computes its
/// local snapshot, the coordinator merges the partials. The merge is
/// bit-identical to a single-node engine over the same inputs: per-VM rows
/// cross the wire with bit-cast doubles and fold through the exact,
/// order-free fleet fold, and the unavailability baseline travels as raw
/// integer sums which merge exactly in any grouping.
///
/// Transport: workers live behind ShardHosts — in-process channels, socket
/// threads, or real child processes (ShardTransportMode). Over sockets the
/// coordinator runs a session layer per shard: connect with full-jitter
/// backoff, kHello handshake to learn whether the worker's engine
/// survived, kInit/kRestore/outbox-replay to rebuild it when it did not,
/// and exactly-once calls (per-handle monotonic request ids + worker-side
/// dedup) so retries after swallowed responses never double-apply.
///
/// Failure model: a shard killed mid-day (InjectShardFailure, or detected
/// via a dead connection that exhausts its reconnect budget) degrades
/// gathers instead of failing them — its VMs land in vms_deferred and the
/// merged DataQuality is flagged degraded, never silently wrong.
/// RecoverShard respawns the host and rebuilds the worker from the
/// coordinator-held checkpoint plus an outbox replay of every acknowledged
/// mutation since, which restores bit-identical state.
///
/// Rebalance: recuts the map to balanced quantile ranges and hands each
/// moved range off via ExtractRange/InstallVms in the checkpoint format;
/// ownership flips per range only after its transfer succeeded, so an
/// aborted rebalance leaves a consistent (partially moved) fleet.
///
/// Thread safety: all methods are thread-safe. Gathers and ingest take the
/// topology lock shared; rebalance, registration, failure injection and
/// recovery take it exclusive. Each shard's transport is serialized by a
/// per-handle mutex.
class ShardCoordinator {
 public:
  /// Ingest frames are batched per shard up to this many events before a
  /// flush; gathers and watermark advances flush implicitly.
  static constexpr size_t kIngestBatchSize = 256;

  /// `catalog` and `weights` must outlive the coordinator. Spawns and
  /// starts all workers; fails if any engine rejects the options.
  static StatusOr<std::unique_ptr<ShardCoordinator>> Create(
      const EventCatalog* catalog, const EventWeightModel* weights,
      ShardTopologyOptions options);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Registers VMs with their owner shards. The first (bulk) registration
  /// on an empty fleet also cuts the shard map into balanced contiguous
  /// ranges over the registered ids; later registrations route by the
  /// existing map (Rebalance recuts).
  Status RegisterVms(const std::vector<VmServiceInfo>& vms);
  Status RegisterVm(const VmServiceInfo& vm);

  /// Routes one event to its owner shard, buffered per shard into ingest
  /// batches of kIngestBatchSize events.
  Status Ingest(const RawEvent& event);
  Status IngestBatch(const std::vector<RawEvent>& events);

  /// Delivery-manifest announcement, routed to the target's owner.
  Status ExpectDelivery(const std::string& target, uint64_t count);

  /// Advances every shard's watermark (never regresses). A recovered shard
  /// is re-advanced to the highest requested value.
  Status AdvanceWatermarkTo(TimePoint t);

  /// Delivers all buffered events to their owner shards.
  Status Flush();

  /// Settled fleet snapshot: flush, scatter an unbounded gather to every
  /// shard in parallel, merge. Bit-identical to a single-node engine
  /// Snapshot over the same inputs when all shards respond.
  ///
  /// DEPRECATED as a consumer API: prefer serve::CdiQueryService over a
  /// CoordinatorSource — a kFresh query is exactly this gather, plus
  /// caching and staleness bounds for repeat readers.
  StatusOr<DailyCdiResult> Snapshot();

  /// Deadline-bounded gather: each shard gets the remaining budget; a
  /// straggler past the grace window is dropped from the merge and its VMs
  /// counted as deferred (degraded result, like a dead shard). Fails only
  /// when no shard responds.
  StatusOr<DailyCdiResult> Preview(const Deadline& deadline);

  /// Fleet Eq.-4 CDI (the fleet fold over a settled gather).
  ///
  /// DEPRECATED as a consumer API: prefer serve::CdiQueryService (a
  /// fleet-only query over a CoordinatorSource), which caches the gather
  /// instead of re-scattering on every read.
  StatusOr<VmCdi> FleetCdi();

  /// Global min-watermark: pings live shards for fresh values; a dead
  /// shard contributes its last known watermark, pinning the global value
  /// until recovery.
  TimePoint Watermark();

  /// Recuts the map to balanced ranges over the current registry and hands
  /// moved ranges off between shards (extract -> install -> flip
  /// ownership, per range). Ends with a checkpoint pass so a later crash
  /// cannot resurrect moved VMs on their old owner. Returns the first
  /// transfer error; already-committed moves stay committed.
  Status Rebalance();

  /// Captures every live shard's checkpoint coordinator-side and clears
  /// its replay outbox.
  Status CheckpointShards();

  /// Simulated crash of one shard: its host is killed (in-process: the
  /// channel closes and the engine is destroyed; process mode: SIGKILL).
  /// Buffered-but-unsent events for the shard are retained for delivery
  /// after recovery.
  Status InjectShardFailure(size_t shard);

  /// Respawns a dead shard's host and rebuilds its session: restore from
  /// the held checkpoint, replay the acknowledged-mutation outbox in
  /// order, resolve any in-flight call the crash interrupted, re-advance
  /// the watermark, and install any fragments parked by a failed rebalance
  /// transfer. State is bit-identical to the moment of the last
  /// acknowledged mutation.
  Status RecoverShard(size_t shard);

  /// Pulls every live shard's obs snapshot (metrics at raw-bucket
  /// fidelity, span stats, and — with `include_spans` — the raw spans
  /// drained since the previous pull), each tagged "shard-<i>" and with a
  /// clock offset measured from the pull's own round trip (the worker's
  /// capture timestamp is bracketed by our send and receive; the midpoint
  /// maps its monotonic clock onto ours to within half the RTT). Dead
  /// shards are skipped — a fleet view missing a crashed worker is
  /// degraded, not wrong; fails only when no shard answers. Feed the
  /// result to obs::CaptureFleetObsSnapshot. A finite `deadline` bounds
  /// every per-shard pull (stragglers past the grace window are skipped,
  /// same policy as a deadline-bounded gather).
  StatusOr<std::vector<obs::ProcessObs>> PullWorkerObs(
      bool include_spans = true, const Deadline& deadline = Deadline());

  bool ShardAlive(size_t shard) const;
  ShardMap Map() const;
  ShardFleetStats stats() const;
  size_t num_shards() const { return handles_.size(); }

 private:
  struct OutboxEntry {
    uint64_t request_id = 0;
    std::string frame;
  };

  /// Coordinator-side state for one shard. `mu` serializes the transport
  /// (one in-flight request per shard) and guards everything below it.
  struct Handle {
    mutable std::mutex mu;
    size_t index = 0;
    std::unique_ptr<ShardHost> host;
    std::unique_ptr<Transport> channel;
    uint64_t next_request_id = 1;
    std::atomic<bool> alive{false};
    /// Last checkpoint captured from the shard; recovery baseline.
    StreamCheckpoint last_checkpoint;
    bool has_checkpoint = false;
    /// Acknowledged mutating frames since the last checkpoint, replayed
    /// verbatim (original request ids) on recovery.
    std::vector<OutboxEntry> outbox;
    /// A mutation (or extract) whose outcome is unknown — sent, but the
    /// transport died before a response landed. Resolved by resending the
    /// same id (the worker dedups) before any new traffic touches the
    /// shard; holds the only copy of undelivered ingest events.
    std::optional<OutboxEntry> in_flight;
    /// True once this shard has established at least one session (later
    /// establishes count as reconnects).
    bool ever_connected = false;
    /// Rebuild progress for a session being (re)built. A lossy network can
    /// kill the connection mid-handshake, so the rebuild is resumable: each
    /// establish continues from the last confirmed step instead of
    /// restarting the whole init/restore/replay sequence (the worker keeps
    /// its partially rebuilt engine across connection loss, and its dedup
    /// makes the boundary frame exact). Reset whenever kHello reports the
    /// engine itself is gone.
    enum class RebuildStage { kStart, kInitDone, kRestoreDone };
    RebuildStage rebuild_stage = RebuildStage::kStart;
    /// Outbox entries confirmed replayed in the current rebuild.
    size_t replay_cursor = 0;
    /// True once the session handshake has fully completed; false while a
    /// rebuild is in progress (even across redials).
    bool session_complete = false;
    /// Ingest buffer not yet framed; survives a shard crash
    /// coordinator-side.
    std::vector<RawEvent> pending;
    TimePoint last_watermark;
    /// Session health, per shard: 1 while a session is live, 0 after the
    /// shard is marked dead; and the replay-outbox depth (frames held for
    /// recovery since the last checkpoint).
    obs::Gauge* connected_gauge = nullptr;
    obs::Gauge* outbox_gauge = nullptr;
  };

  /// A fragment whose install failed on both destination and source during
  /// a rebalance; re-installed into its owner on recovery.
  struct ParkedFragment {
    ShardMap::Range range;
    StreamCheckpoint fragment;
  };

  ShardCoordinator(const EventCatalog* catalog, const EventWeightModel* weights,
                   ShardTopologyOptions options);
  Status StartWorkers();
  std::unique_ptr<ShardHost> MakeHost(size_t shard);

  /// One send+receive attempt on the current channel, discarding stale
  /// responses of abandoned earlier calls. Requires h.mu held.
  StatusOr<std::string> AttemptLocked(Handle& h, uint64_t request_id,
                                      const std::string& frame,
                                      const Deadline& deadline);
  /// The session-aware call: (re)establishes the connection, resolves any
  /// parked in-flight request, then attempts `frame` under the session's
  /// retry budget. Marks the shard dead when the budget ends Unavailable.
  /// Requires h.mu held.
  StatusOr<std::string> CallLocked(Handle& h, uint64_t request_id,
                                   const std::string& frame,
                                   const Deadline& deadline);
  /// CallLocked + status decode; on success appends the frame to the
  /// recovery outbox; on transport failure the frame stays parked in the
  /// in-flight slot. Requires h.mu held.
  Status MutateLocked(Handle& h, uint64_t request_id, std::string frame);
  /// Dials + handshakes a fresh session: kHello, then (for a fresh or
  /// partially rebuilt engine) the remaining kInit / kRestore / outbox
  /// replay steps, resuming from h.rebuild_stage / h.replay_cursor. Sets
  /// h.alive on success. Does not touch the in-flight slot. Requires h.mu
  /// held.
  Status EstablishSessionLocked(Handle& h);
  /// EstablishSessionLocked under the session's attempt budget — each
  /// failed attempt redials and resumes the handshake where it died.
  /// Requires h.mu held.
  Status EstablishWithRetryLocked(Handle& h);
  /// Resolves the parked in-flight call by resending its id: the worker
  /// either dedups (it applied the original) or applies it now. A resolved
  /// extract's fragment is reinstalled into the same shard — the move was
  /// abandoned, the VMs must not evaporate. Requires h.mu held.
  Status ResolveInFlightLocked(Handle& h);
  void MarkDead(Handle& h);
  void HeartbeatLoop();

  /// Sends shard i's pending events as one ingest batch. Requires h.mu.
  Status FlushPendingLocked(Handle& h);
  /// FlushPendingLocked for every shard. Requires topology lock (shared
  /// suffices).
  Status FlushAllLocked();
  Status CheckpointShardsLocked();
  /// Merged gather implementation. Requires topology lock (shared).
  StatusOr<DailyCdiResult> GatherLocked(const Deadline& deadline);
  /// The shared scatter skeleton of the gather and obs-pull paths: one
  /// pool task per shard, each carrying the caller's trace context, run
  /// under the handle lock with dead shards skipped, and handed the
  /// per-shard receive deadline (the caller's remaining budget plus the
  /// straggler grace window, so a slow shard times out coordinator-side
  /// instead of wedging the scatter). Requires topology lock (shared).
  void ScatterLocked(
      const Deadline& deadline,
      const std::function<void(size_t, Handle&, const Deadline&)>& fn);
  /// VMs currently owned by `shard` per the registry. Requires topology
  /// lock (shared).
  size_t OwnedVmCountLocked(size_t shard) const;

  const EventCatalog* catalog_;
  const EventWeightModel* weights_;
  ShardTopologyOptions options_;

  /// Acquires topo_mu_ shared (readers: gathers, ingest, watermarks).
  std::shared_lock<std::shared_mutex> ReadTopology() const;
  /// Acquires topo_mu_ exclusive (writers: rebalance, registration,
  /// failure injection, recovery).
  std::unique_lock<std::shared_mutex> WriteTopology() const;

  /// Gathers/ingest shared; rebalance/registration/failure/recovery
  /// exclusive. Guards map_, registry_, parked_, and topology changes.
  /// Always acquired through ReadTopology()/WriteTopology(): both pass
  /// through topo_gate_ first, so a waiting writer blocks NEW readers and
  /// cannot starve under a continuous gather/ingest load (glibc's
  /// shared_mutex is reader-preferring by default).
  mutable std::mutex topo_gate_;
  mutable std::shared_mutex topo_mu_;
  ShardMap map_;
  std::map<std::string, VmServiceInfo> registry_;
  std::vector<ParkedFragment> parked_;
  std::vector<std::unique_ptr<Handle>> handles_;

  /// Socket directory owned (created) by this coordinator; removed on
  /// destruction. Empty when the caller supplied one.
  std::string owned_socket_dir_;
  std::vector<std::string> socket_paths_;

  /// Scatter/gather worker pool (one task per shard).
  std::unique_ptr<ThreadPool> pool_;

  /// Highest watermark ever requested; re-applied to recovered shards.
  std::mutex wm_mu_;
  std::optional<TimePoint> wm_target_;

  /// Heartbeat prober (session.heartbeat_interval > 0 only).
  std::thread heartbeat_thread_;
  std::mutex heartbeat_mu_;
  std::condition_variable heartbeat_cv_;
  bool heartbeat_stop_ = false;

  mutable std::mutex stats_mu_;
  ShardFleetStats stats_;
};

}  // namespace cdibot::shard

#endif  // CDIBOT_SHARD_COORDINATOR_H_
