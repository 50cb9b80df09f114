#ifndef CDIBOT_STREAM_STREAMING_ENGINE_H_
#define CDIBOT_STREAM_STREAMING_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "cdi/aggregate.h"
#include "cdi/pipeline.h"
#include "chaos/quarantine.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "event/period_resolver.h"
#include "storage/stream_checkpoint.h"

namespace cdibot {

/// Tuning knobs for the streaming engine.
struct StreamingCdiOptions {
  /// The evaluation window the engine maintains results for (typically one
  /// UTC day — the same window the batch DailyCdiJob would be given).
  Interval window;
  /// The event-time watermark trails the maximum ingested event time by
  /// this much: events older than the watermark are counted as late but
  /// still folded in (CDI is a correctness metric, so late data revises
  /// the affected VM rather than being dropped).
  Duration allowed_lateness = Duration::Minutes(5);
  /// Number of state shards. Each shard owns a disjoint set of VMs plus a
  /// mergeable partial aggregate, so FleetCdi() touches only per-shard
  /// partials and dirty VMs.
  size_t num_shards = 16;
  /// Optional worker pool for recomputing dirty VMs in parallel. Borrowed;
  /// must outlive the engine.
  ThreadPool* pool = nullptr;
};

/// Observability counters for the engine.
struct StreamingCdiStats {
  size_t events_ingested = 0;
  /// Events that arrived behind the watermark (still processed).
  size_t events_late = 0;
  /// Events outside window +/- kEventSearchMargin (cannot affect the
  /// window; dropped on ingest).
  size_t events_out_of_window = 0;
  /// Events for targets with no registered VM, buffered until the VM
  /// appears (mid-day churn registers VMs after their first events).
  size_t events_orphaned = 0;
  /// Total per-VM recomputations performed so far.
  size_t vms_recomputed = 0;
  size_t snapshots_taken = 0;
  /// Events reported via RecordShed: dropped by upstream admission control
  /// before reaching Ingest. They surface as DataQuality::events_shed on
  /// the affected VMs' snapshot rows.
  size_t events_shed = 0;
  TimePoint watermark;
};

/// StreamingCdiEngine is the incremental counterpart of the batch
/// DailyCdiJob: it ingests RawEvents as they arrive — out of order, late,
/// or duplicated — maintains per-VM resolved-period state sharded across a
/// ThreadPool, and emits DailyCdiResult-compatible snapshots where only the
/// VMs touched by new events since the previous snapshot are recomputed.
///
/// Equivalence guarantee: after the same events and VM registrations, a
/// Snapshot() is bit-identical to DailyCdiJob::Run on the same inputs, up to
/// row order (snapshot rows are sorted by vm_id). The per-VM math is the
/// same ComputeVmDailyCdi call, period resolution is arrival-order
/// invariant, and both assemble through DailyCdiResultBuilder, whose
/// exact fleet fold does not depend on row order. The differential
/// suite in tests/stream_batch_equivalence_test.cc pins this property.
///
/// Thread safety: Ingest/RegisterVm/Snapshot are individually thread-safe
/// (per-shard locking plus an engine mutex for watermark and stats).
///
/// Degraded-mode operation: a structurally malformed event is diverted to
/// the engine's quarantine sink instead of failing Ingest, and collectors
/// may announce per-target delivery counts via ExpectDelivery; snapshots
/// then annotate each VM's row with a DataQuality record (quarantined
/// count, missing count, degraded flag) so a CDI computed from an impaired
/// stream is flagged rather than silently wrong — the paper's position
/// that a stability metric must itself keep working through instability.
class StreamingCdiEngine {
 public:
  /// `catalog` and `weights` must outlive the engine.
  static StatusOr<StreamingCdiEngine> Create(const EventCatalog* catalog,
                                             const EventWeightModel* weights,
                                             StreamingCdiOptions options);

  StreamingCdiEngine(StreamingCdiEngine&&) = default;
  StreamingCdiEngine& operator=(StreamingCdiEngine&&) = default;

  /// Declares a VM and its service window (clamped into the engine window
  /// at snapshot time, like the batch job). Re-registering an id replaces
  /// its service info — mid-day churn shrinks or extends the window — and
  /// marks the VM dirty. Events that arrived before registration are
  /// adopted from the orphan buffer.
  Status RegisterVm(const VmServiceInfo& vm);

  /// Feeds one raw event. Advances the watermark, routes the event to its
  /// target VM's shard, and marks that VM dirty; no recomputation happens
  /// until the next snapshot touches the VM. O(1) amortized regardless of
  /// fleet size. A structurally malformed event (empty name or target,
  /// impossible severity, ...) is diverted to the quarantine sink and the
  /// call still returns OK — instability in the input degrades the
  /// affected VM's data-quality annotation, never the pipeline itself.
  Status Ingest(const RawEvent& event);
  Status IngestBatch(const std::vector<RawEvent>& events);

  /// Declares that `target`'s collector sent `count` more events than
  /// previously announced (a delivery manifest). At snapshot time the
  /// engine compares the announcement against the DISTINCT events actually
  /// received for the target — duplicates collapse, so a duplicated stream
  /// cannot mask a drop — and reports the shortfall as
  /// DataQuality::events_missing, the silent-collector-gap signature.
  void ExpectDelivery(const std::string& target, uint64_t count);

  /// Records that upstream admission control (flow::BackpressureQueue)
  /// shed `count` events bound for `target`. Shed events never reach
  /// Ingest, so this is the only way the engine learns about them; at
  /// snapshot time they surface as DataQuality::events_shed on the
  /// target's row, flagging its CDI as degraded-by-overload. Shed counts
  /// travel with the target's state: Checkpoint() and ExtractRange() carry
  /// them, Restore() and InstallVms() fold them back in, so a reporter must
  /// not re-report sheds that a restored checkpoint already holds.
  void RecordShed(const std::string& target, uint64_t count = 1);

  /// Sink holding every event Ingest diverted. Owned by the engine.
  const chaos::QuarantineSink& quarantine() const { return *quarantine_; }

  /// Explicitly advances the watermark (e.g. on an idle stream). The
  /// watermark never regresses.
  void AdvanceWatermarkTo(TimePoint t);

  /// Recomputes every dirty VM (in parallel when a pool is configured),
  /// folds the revisions into the per-shard partial aggregates, and returns
  /// the fleet-level CDI by merging the shard partials. Cost is
  /// O(dirty VMs + shards), independent of fleet size when the stream is
  /// quiet. The partials are exact, so the bits equal Snapshot().fleet and
  /// the batch job's fleet over the same VMs.
  ///
  /// DEPRECATED as a consumer API: new read paths should go through
  /// serve::CdiQueryService (a fleet-only query returns the same bits) and
  /// gain caching and staleness bounds.
  StatusOr<VmCdi> FleetCdi();

  /// Full batch-compatible snapshot: per-VM rows, per-event drill-down
  /// rows, fleet aggregates, baselines, and data-quality counters, exactly
  /// as DailyCdiJob::Run would report them. Recomputes dirty VMs first;
  /// assembling the row vectors is O(fleet) by necessity (the result lists
  /// every VM), but the recomputation work stays proportional to the dirty
  /// set.
  ///
  /// DEPRECATED as a consumer API: prefer serve::CdiQueryService with
  /// include_detail (a kFresh detail query is exactly this snapshot).
  StatusOr<DailyCdiResult> Snapshot();

  /// Deadline-bounded snapshot: recomputes dirty VMs only until `deadline`
  /// expires, then assembles the result from what is resident. VMs whose
  /// recompute was deferred stay dirty (the next Snapshot/Preview picks
  /// them up); a deferred VM with a previous output contributes its stale
  /// row, one never computed contributes nothing. The deferral count lands
  /// in DailyCdiResult::vms_deferred, so a non-zero value marks the result
  /// as a best-effort preview rather than a settled snapshot.
  ///
  /// DEPRECATED as a consumer API: prefer serve::CdiQueryService with a
  /// finite CdiQuery::deadline, which routes here and adds the serving
  /// layers on top.
  StatusOr<DailyCdiResult> Preview(const Deadline& deadline);

  /// Serializes the engine's durable state (window, watermark, registered
  /// VMs, buffered raw events, orphaned events, per-target delivery/shed/
  /// quarantine accounting and the engine-wide counters) for
  /// SaveStreamCheckpoint (storage/stream_checkpoint.h), which writes it as
  /// one CRC-framed file. It is the whole-range, non-destructive case of
  /// ExtractRange: both collect VMs and per-target rows with the same code.
  /// The derived per-VM results are not persisted; a restored engine
  /// lazily recomputes them on the first snapshot.
  StreamCheckpoint Checkpoint() const;

  /// Rebuilds an engine from a checkpoint: creates one over the
  /// checkpoint's window, installs the state with InstallVms(), then
  /// restores the engine-wide counters. The watermark is the union of the
  /// fresh engine's and the checkpoint's, which equals the checkpoint's
  /// whenever `options.allowed_lateness` matches the original engine's.
  static StatusOr<StreamingCdiEngine> Restore(const StreamCheckpoint& ckpt,
                                              const EventCatalog* catalog,
                                              const EventWeightModel* weights,
                                              StreamingCdiOptions options);

  /// Removes every VM whose id falls in [lo, hi) — hi nullopt means
  /// unbounded — and returns their durable state as a checkpoint FRAGMENT
  /// in the standard StreamCheckpoint format, ready for InstallVms on
  /// another engine. The fragment holds exactly what Checkpoint() would
  /// record for the range: registered VMs, their buffered events, orphaned
  /// events for unregistered targets in the range (mid-day churn: a VM
  /// registering after a rebalance must find its early events at its NEW
  /// owner), per-target delivery/shed/quarantine rows, and this engine's
  /// watermark pair for watermark union at the destination. The engine-wide
  /// counters stay behind. Extracted VMs' contributions are retracted from
  /// the partial aggregates; each shard is swept under its own lock, so
  /// the extraction is atomic per shard against concurrent ingest. This is
  /// the shard-rebalance handoff primitive.
  StreamCheckpoint ExtractRange(const std::string& lo,
                                const std::optional<std::string>& hi);

  /// Installs a fragment produced by ExtractRange (or a whole checkpoint;
  /// Restore() goes through here): registers the VMs, places their buffered
  /// events without ingest-side accounting, adopts or parks the orphaned
  /// events, folds the per-target delivery/shed/quarantine rows in
  /// additively, and unions the watermark (never regressing this engine's
  /// own). After extract+install, the union of both engines' snapshots is
  /// state-identical to the pre-handoff pair.
  Status InstallVms(const StreamCheckpoint& fragment);

  StreamingCdiStats stats() const;
  const Interval& window() const { return options_.window; }
  TimePoint watermark() const;
  size_t num_vms() const;

 private:
  struct VmState {
    VmServiceInfo info;
    /// Retention buffer: events for this VM inside window +/-
    /// kEventSearchMargin, in arrival order (the resolver sorts
    /// internally, so arrival order is irrelevant to the result — see the
    /// permutation-invariance fuzz tests). Stored as SoA rows with
    /// interned ids; recomputes cut a zero-copy EventSpan over them
    /// instead of copying RawEvents, and checkpointing materializes.
    EventRows events;
    /// True iff the VM is queued in the shard's dirty list. Default false:
    /// RegisterVm marks the fresh state dirty itself, which keeps the flag
    /// and the queue in lockstep.
    bool dirty = false;
    /// Valid once the VM has been computed; its contribution is resident
    /// in the shard partials and retracted before a recompute.
    bool has_output = false;
    VmDailyOutput output;
    /// Result of the last recompute; a failing VM keeps its (partial)
    /// output for resolver-counter reporting but contributes nothing to
    /// the partial aggregates, mirroring DailyCdiJob::Run.
    Status error;

    /// True iff the VM's output is folded into its shard's partials.
    bool contributes() const {
      return has_output && !output.skipped && error.ok();
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, VmState> vms;
    /// Mergeable Eq.-4 partial over the shard's computed VMs; FleetCdi()
    /// merges these instead of re-aggregating the whole fleet.
    FleetCdiPartial cdi_partial;
    std::vector<std::string> dirty_vms;

    /// Queues `state` (registered as `vm_id`) for recompute unless it is
    /// queued already. Shard lock held.
    void MarkDirty(VmState& state, const std::string& vm_id) {
      if (!state.dirty) {
        state.dirty = true;
        dirty_vms.push_back(vm_id);
      }
    }
    /// Appends adopted orphan events to `state`, marking it dirty when
    /// any arrived. Shard lock held.
    void Adopt(VmState& state, const std::string& vm_id,
               const std::vector<RawEvent>& events) {
      for (const RawEvent& ev : events) state.events.Append(ev);
      if (!events.empty()) MarkDirty(state, vm_id);
    }
    /// Removes `state`'s resident contribution from the partials. Shard
    /// lock held.
    void Retract(const VmState& state) {
      if (state.contributes()) cdi_partial.RemoveVm(state.output.record.cdi);
    }
  };

  StreamingCdiEngine(const EventCatalog* catalog,
                     const EventWeightModel* weights,
                     StreamingCdiOptions options);

  /// Per-target delivery accounting (guarded by mu_). `received` counts
  /// DISTINCT events by fingerprint so injected duplicates cannot cancel
  /// out drops; fingerprints are not persisted, so a restore folds the
  /// prior distinct count into `received_base`.
  struct DeliveryState {
    uint64_t expected = 0;
    uint64_t received_base = 0;
    std::unordered_set<uint64_t> fingerprints;
    uint64_t received() const { return received_base + fingerprints.size(); }
  };

  size_t ShardIndex(const std::string& vm_id) const;
  /// Folds an observed event time into max_event_time_ and the watermark
  /// (mu_ held).
  void ObserveEventTime(TimePoint t);
  /// Raises the watermark to `t`; it never regresses (mu_ held).
  void RaiseWatermarkLocked(TimePoint t);
  /// Removes and returns the events parked for `target` (takes mu_).
  std::vector<RawEvent> TakeOrphans(const std::string& target);
  /// If `target` is registered, moves its parked events into its state
  /// (takes the shard lock, then mu_ inside it).
  void AdoptIfRegistered(const std::string& target);
  /// The one collector of per-target state for Checkpoint and
  /// ExtractRange (mu_ held): copies the watermark pair, the orphaned
  /// events of targets in [lo, hi), and one target_quality row per target
  /// in the range, merging delivery, shed and quarantine counts, sorted by
  /// target.
  void CollectTargetsLocked(const std::string& lo,
                            const std::optional<std::string>& hi,
                            StreamCheckpoint& out) const;
  /// Recomputes one dirty VM inside `shard` (shard lock held by caller or
  /// exclusivity guaranteed) and updates the shard partials.
  void RecomputeVmLocked(Shard& shard, VmState& state);
  /// Recomputes dirty VMs across all shards until `deadline` expires; VMs
  /// not reached in time are re-queued (still dirty). Returns how many
  /// recomputes were deferred (0 with the default infinite deadline).
  size_t DrainDirty(const Deadline& deadline = Deadline());
  /// Shared implementation of Snapshot (infinite deadline) and Preview.
  StatusOr<DailyCdiResult> SnapshotImpl(const Deadline& deadline);

  const EventCatalog* catalog_;
  const EventWeightModel* weights_;
  StreamingCdiOptions options_;
  PeriodResolver resolver_;
  /// Shards are heap-allocated so the engine stays movable.
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Guards watermark, stats, and the orphan buffer. Heap-allocated so the
  /// engine stays movable (shards are too, for the same reason).
  std::unique_ptr<std::mutex> mu_;
  TimePoint watermark_;
  TimePoint max_event_time_;
  StreamingCdiStats stats_;
  /// Events whose target has no registered VM yet, keyed by target.
  std::map<std::string, std::vector<RawEvent>> orphans_;
  /// Delivery-manifest accounting per target (guarded by mu_).
  std::map<std::string, DeliveryState> delivery_;
  /// Shed counts per target reported by RecordShed (guarded by mu_).
  std::map<std::string, uint64_t> shed_by_target_;
  /// Malformed-input sink. Heap-allocated: it owns a mutex, and the engine
  /// must stay movable.
  std::unique_ptr<chaos::QuarantineSink> quarantine_;
};

}  // namespace cdibot

#endif  // CDIBOT_STREAM_STREAMING_ENGINE_H_
