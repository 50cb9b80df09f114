#include "stream/streaming_engine.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdibot {

namespace {

// Ingest is the per-update hot path: each registry touch below is a single
// relaxed atomic op on a cached handle (stream_throughput pins the cost).
// Restore() repopulates engine-local stats_ from the checkpoint without
// touching these — the registry counts only what this process observed.
struct StreamCounters {
  obs::Counter* ingested;
  obs::Counter* late;
  obs::Counter* out_of_window;
  obs::Counter* orphaned;
  obs::Counter* recomputed;
  obs::Counter* snapshots;
  obs::Counter* shed;
  obs::Counter* deferred;
  obs::Gauge* watermark_ms;
};

const StreamCounters& Counters() {
  static const StreamCounters c = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return StreamCounters{
        .ingested = reg.GetCounter("stream.events_ingested"),
        .late = reg.GetCounter("stream.events_late"),
        .out_of_window = reg.GetCounter("stream.events_out_of_window"),
        .orphaned = reg.GetCounter("stream.events_orphaned"),
        .recomputed = reg.GetCounter("stream.vms_recomputed"),
        .snapshots = reg.GetCounter("stream.snapshots"),
        .shed = reg.GetCounter("stream.events_shed"),
        .deferred = reg.GetCounter("stream.vms_deferred"),
        .watermark_ms = reg.GetGauge("stream.watermark_ms"),
    };
  }();
  return c;
}

/// Content fingerprint of an event for distinct-received accounting. Any
/// corruption (skewed time, flipped severity) changes the fingerprint, so
/// only a faithful redelivery of an already-seen event collapses into it.
/// attrs is an ordered map, so the canonical string is deterministic.
uint64_t EventFingerprint(const RawEvent& ev) {
  std::string canon = ev.name;
  canon += '\x1f';
  canon += std::to_string(ev.time.millis());
  canon += '\x1f';
  canon += ev.target;
  canon += '\x1f';
  canon += std::to_string(static_cast<int>(ev.level));
  canon += '\x1f';
  canon += std::to_string(ev.expire_interval.millis());
  for (const auto& [key, value] : ev.attrs) {
    canon += '\x1f';
    canon += key;
    canon += '=';
    canon += value;
  }
  return std::hash<std::string>{}(canon);
}

/// [first, last) of the entries of `m` whose keys fall in [lo, hi); hi
/// nullopt means unbounded, and hi <= lo selects nothing.
template <typename Map>
auto KeyRange(Map& m, const std::string& lo,
              const std::optional<std::string>& hi) {
  const auto first = m.lower_bound(lo);
  if (!hi.has_value()) return std::make_pair(first, m.end());
  return std::make_pair(first, *hi <= lo ? first : m.lower_bound(*hi));
}

template <typename Map>
void EraseKeyRange(Map& m, const std::string& lo,
                   const std::optional<std::string>& hi) {
  const auto [first, last] = KeyRange(m, lo, hi);
  m.erase(first, last);
}

/// Appends one VM's registration and its materialized events to `out`.
void AppendVm(const VmServiceInfo& info, const EventRows& events,
              StreamCheckpoint& out) {
  out.vms.push_back(CheckpointVmEntry{.vm_id = info.vm_id,
                                      .dims = info.dims.map(),
                                      .service_period = info.service_period});
  for (uint32_t row = 0; row < events.size(); ++row) {
    out.events.push_back(events.Materialize(row));
  }
}

void SortByVmId(std::vector<CheckpointVmEntry>& vms) {
  std::sort(vms.begin(), vms.end(),
            [](const CheckpointVmEntry& a, const CheckpointVmEntry& b) {
              return a.vm_id < b.vm_id;
            });
}

}  // namespace

StreamingCdiEngine::StreamingCdiEngine(const EventCatalog* catalog,
                                       const EventWeightModel* weights,
                                       StreamingCdiOptions options)
    : catalog_(catalog),
      weights_(weights),
      options_(options),
      resolver_(catalog),
      mu_(std::make_unique<std::mutex>()),
      quarantine_(std::make_unique<chaos::QuarantineSink>()) {
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Before any event arrives the watermark sits at the earliest instant
  // that could still affect the window, so nothing counts as late.
  watermark_ = options_.window.start - kEventSearchMargin;
  max_event_time_ = watermark_;
}

StatusOr<StreamingCdiEngine> StreamingCdiEngine::Create(
    const EventCatalog* catalog, const EventWeightModel* weights,
    StreamingCdiOptions options) {
  if (catalog == nullptr || weights == nullptr) {
    return Status::InvalidArgument("catalog and weights are required");
  }
  if (options.window.empty()) {
    return Status::InvalidArgument("evaluation window must be non-empty");
  }
  if (options.allowed_lateness.IsNegative()) {
    return Status::InvalidArgument("allowed_lateness must be >= 0");
  }
  options.num_shards = std::max<size_t>(1, options.num_shards);
  return StreamingCdiEngine(catalog, weights, std::move(options));
}

size_t StreamingCdiEngine::ShardIndex(const std::string& vm_id) const {
  return std::hash<std::string>{}(vm_id) % shards_.size();
}

Status StreamingCdiEngine::RegisterVm(const VmServiceInfo& vm) {
  if (vm.vm_id.empty()) {
    return Status::InvalidArgument("vm_id must be non-empty");
  }
  // Adopt any events that arrived before the registration.
  const std::vector<RawEvent> adopted = TakeOrphans(vm.vm_id);
  Shard& shard = *shards_[ShardIndex(vm.vm_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  VmState& state = shard.vms[vm.vm_id];
  state.info = vm;
  shard.Adopt(state, vm.vm_id, adopted);
  shard.MarkDirty(state, vm.vm_id);
  return Status::OK();
}

std::vector<RawEvent> StreamingCdiEngine::TakeOrphans(
    const std::string& target) {
  std::vector<RawEvent> taken;
  std::lock_guard<std::mutex> lock(*mu_);
  auto it = orphans_.find(target);
  if (it != orphans_.end()) {
    taken = std::move(it->second);
    orphans_.erase(it);
  }
  return taken;
}

void StreamingCdiEngine::AdoptIfRegistered(const std::string& target) {
  Shard& shard = *shards_[ShardIndex(target)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.vms.find(target);
  if (it == shard.vms.end()) return;
  shard.Adopt(it->second, target, TakeOrphans(target));
}

void StreamingCdiEngine::ObserveEventTime(TimePoint t) {
  if (max_event_time_ < t) max_event_time_ = t;
  RaiseWatermarkLocked(max_event_time_ - options_.allowed_lateness);
}

void StreamingCdiEngine::RaiseWatermarkLocked(TimePoint t) {
  if (watermark_ < t) {
    watermark_ = t;
    Counters().watermark_ms->Set(static_cast<double>(watermark_.millis()));
  }
}

Status StreamingCdiEngine::Ingest(const RawEvent& event) {
  const auto defect = chaos::ValidateRawEvent(event);
  if (defect.has_value()) {
    // Malformed input is diverted, not an error: the stream keeps flowing
    // and the affected VM's snapshot carries the degradation instead.
    quarantine_->Quarantine(event, *defect);
    Counters().ingested->Increment();
    std::lock_guard<std::mutex> lock(*mu_);
    ++stats_.events_ingested;
    if (!event.target.empty()) {
      // The corrupted event did physically arrive for this target.
      delivery_[event.target].fingerprints.insert(EventFingerprint(event));
    }
    return Status::OK();
  }
  const Interval relevant(options_.window.start - kEventSearchMargin,
                          options_.window.end + kEventSearchMargin);
  Counters().ingested->Increment();
  {
    std::lock_guard<std::mutex> lock(*mu_);
    ++stats_.events_ingested;
    delivery_[event.target].fingerprints.insert(EventFingerprint(event));
    const bool late = event.time < watermark_;
    ObserveEventTime(event.time);
    if (!relevant.Contains(event.time)) {
      // Can never intersect the window after resolution-time clamping.
      ++stats_.events_out_of_window;
      Counters().out_of_window->Increment();
      return Status::OK();
    }
    if (late) {
      ++stats_.events_late;
      Counters().late->Increment();
    }
  }

  Shard& shard = *shards_[ShardIndex(event.target)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.vms.find(event.target);
    if (it != shard.vms.end()) {
      VmState& state = it->second;
      state.events.Append(event);
      shard.MarkDirty(state, event.target);
      return Status::OK();
    }
  }
  // Target not registered (yet): park the event. RegisterVm drains the
  // orphan buffer before touching the shard, so re-checking under the
  // shard lock after parking closes the race where a registration slips
  // between the lookup above and the insertion below.
  {
    std::lock_guard<std::mutex> lock(*mu_);
    orphans_[event.target].push_back(event);
    ++stats_.events_orphaned;
    Counters().orphaned->Increment();
  }
  AdoptIfRegistered(event.target);
  return Status::OK();
}

Status StreamingCdiEngine::IngestBatch(const std::vector<RawEvent>& events) {
  for (const RawEvent& ev : events) {
    CDIBOT_RETURN_IF_ERROR(Ingest(ev));
  }
  return Status::OK();
}

void StreamingCdiEngine::AdvanceWatermarkTo(TimePoint t) {
  std::lock_guard<std::mutex> lock(*mu_);
  RaiseWatermarkLocked(t);
}

void StreamingCdiEngine::ExpectDelivery(const std::string& target,
                                        uint64_t count) {
  std::lock_guard<std::mutex> lock(*mu_);
  delivery_[target].expected += count;
}

void StreamingCdiEngine::RecordShed(const std::string& target,
                                    uint64_t count) {
  if (count == 0) return;
  Counters().shed->Add(count);
  std::lock_guard<std::mutex> lock(*mu_);
  shed_by_target_[target] += count;
  stats_.events_shed += count;
}

void StreamingCdiEngine::RecomputeVmLocked(Shard& shard, VmState& state) {
  // Retract the VM's resident contribution before folding the revision in.
  shard.Retract(state);

  // Feed exactly the events the batch job's log query would return for
  // this VM — a zero-copy span over the retention buffer with the same
  // margin-extended time filter — so the resolver sees identical inputs
  // (including identical data-quality counters).
  const Interval service =
      state.info.service_period.ClampTo(options_.window);
  EventSpan span;
  if (!service.empty()) {
    span = EventSpan(Interval(service.start - kEventSearchMargin,
                              service.end + kEventSearchMargin));
    if (!state.events.empty()) {
      span.AddSegment(EventSpan::Segment{
          .rows = &state.events,
          .indices = nullptr,
          .first = 0,
          .last = static_cast<uint32_t>(state.events.size())});
    }
  }

  VmDailyError verr;
  auto out_or = ComputeVmDailyCdi(span, state.info, options_.window,
                                  resolver_, *weights_, nullptr, &verr);
  if (out_or.ok()) {
    state.output = std::move(out_or).value();
    state.error = Status::OK();
  } else {
    // A failing VM keeps the counters of the work that ran (snapshot
    // reporting reads them) but contributes nothing to the aggregates.
    state.error = out_or.status();
    state.output = VmDailyOutput{};
    state.output.resolve_stats = verr.resolve_stats;
    state.output.quality = verr.quality;
  }
  state.has_output = true;
  state.dirty = false;
  if (state.contributes()) shard.cdi_partial.AddVm(state.output.record.cdi);
}

size_t StreamingCdiEngine::DrainDirty(const Deadline& deadline) {
  TRACE_SPAN("stream.drain_dirty");
  struct Work {
    Shard* shard;
    std::string vm_id;
  };
  std::vector<Work> work;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (std::string& vm_id : shard->dirty_vms) {
      work.push_back(Work{shard.get(), std::move(vm_id)});
    }
    shard->dirty_vms.clear();
  }
  if (work.empty()) return 0;

  std::atomic<size_t> recomputed{0};
  std::atomic<size_t> deferred{0};
  auto recompute = [&](size_t i) {
    Shard& shard = *work[i].shard;
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.vms.find(work[i].vm_id);
    if (it == shard.vms.end() || !it->second.dirty) return;
    // Budget check per VM: an expired deadline re-queues the VM (its dirty
    // flag never cleared) for the next drain instead of computing it now.
    if (deadline.Expired()) {
      shard.dirty_vms.push_back(work[i].vm_id);
      deferred.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    RecomputeVmLocked(shard, it->second);
    recomputed.fetch_add(1, std::memory_order_relaxed);
  };
  if (options_.pool != nullptr && work.size() > 1) {
    options_.pool->ParallelFor(work.size(), recompute);
  } else {
    for (size_t i = 0; i < work.size(); ++i) recompute(i);
  }

  Counters().recomputed->Add(recomputed.load());
  Counters().deferred->Add(deferred.load());
  std::lock_guard<std::mutex> lock(*mu_);
  stats_.vms_recomputed += recomputed.load();
  return deferred.load();
}

StatusOr<VmCdi> StreamingCdiEngine::FleetCdi() {
  TRACE_SPAN("stream.fleet_cdi");
  DrainDirty();
  FleetCdiPartial total;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.Merge(shard->cdi_partial);
  }
  return total.Finalize();
}

StatusOr<DailyCdiResult> StreamingCdiEngine::Snapshot() {
  return SnapshotImpl(Deadline());
}

StatusOr<DailyCdiResult> StreamingCdiEngine::Preview(const Deadline& deadline) {
  return SnapshotImpl(deadline);
}

StatusOr<DailyCdiResult> StreamingCdiEngine::SnapshotImpl(
    const Deadline& deadline) {
  TRACE_SPAN("stream.snapshot");
  static obs::Histogram* snapshot_ns =
      obs::MetricsRegistry::Global().GetHistogram("stream.snapshot_ns");
  obs::ScopedTimer timer(snapshot_ns);
  DrainDirty(deadline);

  // Delivery shortfalls, shed counts, and quarantine counts per target,
  // gathered before the shard sweep (mu_ and the shard locks are never
  // held together).
  std::map<std::string, uint64_t> missing_by_target;
  std::map<std::string, uint64_t> shed_by_target;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    for (const auto& [target, d] : delivery_) {
      const uint64_t received = d.received();
      if (d.expected > received) {
        missing_by_target[target] = d.expected - received;
      }
    }
    shed_by_target = shed_by_target_;
  }
  const std::map<std::string, uint64_t> quarantined_by_target =
      quarantine_->counts_by_target();

  DailyCdiResultBuilder builder;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& [vm_id, state] : shard->vms) {
      // A VM still dirty after the bounded drain was deferred: its stale
      // output (if any) is reported below, a never-computed VM contributes
      // nothing but the deferral count.
      if (state.dirty) {
        builder.AddDeferred(1);
        if (!state.has_output) continue;
      }
      // The per-VM compute sees only post-quarantine events, so its own
      // quality counters are folded together with the ingest-side sink,
      // delivery accounting, and upstream shed reports here.
      DataQuality quality = state.output.quality;
      if (auto it = quarantined_by_target.find(vm_id);
          it != quarantined_by_target.end()) {
        quality.events_quarantined += it->second;
      }
      if (auto it = missing_by_target.find(vm_id);
          it != missing_by_target.end()) {
        quality.events_missing += it->second;
      }
      if (auto it = shed_by_target.find(vm_id); it != shed_by_target.end()) {
        quality.events_shed += it->second;
      }
      quality.Refresh();
      if (!state.error.ok()) {
        builder.AddFailed(vm_id, state.error.ToString(),
                          state.output.resolve_stats, quality);
      } else if (state.output.skipped) {
        builder.AddSkipped();
      } else {
        builder.AddVm(state.output, quality);
      }
    }
  }
  DailyCdiResult result = std::move(builder).Finish();
  result.SortRows();

  Counters().snapshots->Increment();
  std::lock_guard<std::mutex> lock(*mu_);
  ++stats_.snapshots_taken;
  return result;
}

void StreamingCdiEngine::CollectTargetsLocked(
    const std::string& lo, const std::optional<std::string>& hi,
    StreamCheckpoint& out) const {
  out.watermark = watermark_;
  out.max_event_time = max_event_time_;
  for (auto [it, last] = KeyRange(orphans_, lo, hi); it != last; ++it) {
    out.orphan_events.insert(out.orphan_events.end(), it->second.begin(),
                             it->second.end());
  }
  // One row per target, merged across the delivery, shed and quarantine
  // accounting: a target that only ever produced quarantined events still
  // gets a row, so its counter survives the transfer.
  std::map<std::string, CheckpointTargetQuality> rows;
  const auto row = [&](const std::string& target) -> CheckpointTargetQuality& {
    auto [it, inserted] = rows.try_emplace(target);
    if (inserted) it->second.target = target;
    return it->second;
  };
  // Fingerprint sets are not persisted: the distinct count travels as
  // `received` and becomes received_base at the destination, so a
  // duplicate redelivered across the transfer counts as distinct there.
  for (auto [it, last] = KeyRange(delivery_, lo, hi); it != last; ++it) {
    CheckpointTargetQuality& tq = row(it->first);
    tq.received = it->second.received();
    tq.expected = it->second.expected;
  }
  for (auto [it, last] = KeyRange(shed_by_target_, lo, hi); it != last;
       ++it) {
    row(it->first).shed = it->second;
  }
  const std::map<std::string, uint64_t> quarantined =
      quarantine_->counts_by_target();
  for (auto [it, last] = KeyRange(quarantined, lo, hi); it != last; ++it) {
    row(it->first).quarantined = it->second;
  }
  for (auto& [target, tq] : rows) out.target_quality.push_back(std::move(tq));
}

StreamCheckpoint StreamingCdiEngine::Checkpoint() const {
  TRACE_SPAN("stream.checkpoint");
  StreamCheckpoint ckpt;
  ckpt.window = options_.window;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    CollectTargetsLocked("", std::nullopt, ckpt);
    ckpt.events_ingested = stats_.events_ingested;
    ckpt.events_late = stats_.events_late;
    ckpt.events_out_of_window = stats_.events_out_of_window;
    ckpt.events_orphaned = stats_.events_orphaned;
    ckpt.vms_recomputed = stats_.vms_recomputed;
  }
  ckpt.quarantined_by_reason = quarantine_->CountsByReason();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [vm_id, state] : shard->vms) {
      AppendVm(state.info, state.events, ckpt);
    }
  }
  SortByVmId(ckpt.vms);
  return ckpt;
}

StatusOr<StreamingCdiEngine> StreamingCdiEngine::Restore(
    const StreamCheckpoint& ckpt, const EventCatalog* catalog,
    const EventWeightModel* weights, StreamingCdiOptions options) {
  options.window = ckpt.window;
  CDIBOT_ASSIGN_OR_RETURN(StreamingCdiEngine engine,
                          Create(catalog, weights, std::move(options)));
  CDIBOT_RETURN_IF_ERROR(engine.InstallVms(ckpt));
  {
    std::lock_guard<std::mutex> lock(*engine.mu_);
    engine.stats_.events_ingested = ckpt.events_ingested;
    engine.stats_.events_late = ckpt.events_late;
    engine.stats_.events_out_of_window = ckpt.events_out_of_window;
    engine.stats_.events_orphaned = ckpt.events_orphaned;
    engine.stats_.vms_recomputed = ckpt.vms_recomputed;
  }
  engine.quarantine_->MergeCountsByReason(ckpt.quarantined_by_reason);
  return engine;
}

StreamCheckpoint StreamingCdiEngine::ExtractRange(
    const std::string& lo, const std::optional<std::string>& hi) {
  TRACE_SPAN("stream.extract_range");
  StreamCheckpoint frag;
  frag.window = options_.window;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const auto [first, last] = KeyRange(shard->vms, lo, hi);
    for (auto it = first; it != last; ++it) {
      shard->Retract(it->second);
      AppendVm(it->second.info, it->second.events, frag);
    }
    // Stale ids may linger in dirty_vms; DrainDirty skips missing ids.
    shard->vms.erase(first, last);
  }
  {
    std::lock_guard<std::mutex> lock(*mu_);
    CollectTargetsLocked(lo, hi, frag);
    EraseKeyRange(orphans_, lo, hi);
    EraseKeyRange(delivery_, lo, hi);
    EraseKeyRange(shed_by_target_, lo, hi);
    // Per-target quarantine attribution moves with the range; the
    // reason-keyed totals stay behind (they count what THIS engine
    // diverted, mirroring the engine-local ingest stats).
    for (CheckpointTargetQuality& tq : frag.target_quality) {
      if (tq.quarantined > 0) {
        tq.quarantined = quarantine_->ExtractTargetCount(tq.target);
      }
    }
  }
  SortByVmId(frag.vms);
  return frag;
}

Status StreamingCdiEngine::InstallVms(const StreamCheckpoint& fragment) {
  TRACE_SPAN("stream.install_vms");
  for (const CheckpointVmEntry& vm : fragment.vms) {
    CDIBOT_RETURN_IF_ERROR(RegisterVm(VmServiceInfo{
        .vm_id = vm.vm_id,
        .dims = vm.dims,
        .service_period = vm.service_period}));
  }
  // Buffered events were already admitted and filtered by the source
  // engine, so they bypass ingest-side watermark/window accounting (the
  // watermark is unioned below).
  for (const RawEvent& ev : fragment.events) {
    Shard& shard = *shards_[ShardIndex(ev.target)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.vms.find(ev.target);
    if (it == shard.vms.end()) {
      return Status::InvalidArgument(
          "checkpoint event for unregistered vm: " + ev.target);
    }
    it->second.events.Append(ev);
  }
  {
    std::lock_guard<std::mutex> lock(*mu_);
    for (const RawEvent& ev : fragment.orphan_events) {
      orphans_[ev.target].push_back(ev);
    }
    for (const CheckpointTargetQuality& tq : fragment.target_quality) {
      if (tq.expected > 0 || tq.received > 0) {
        DeliveryState& d = delivery_[tq.target];
        d.expected += tq.expected;
        d.received_base += tq.received;
      }
      if (tq.shed > 0) {
        shed_by_target_[tq.target] += tq.shed;
        stats_.events_shed += tq.shed;
      }
      if (tq.quarantined > 0) {
        quarantine_->RestoreTargetCount(tq.target, tq.quarantined);
      }
    }
    // Watermark union: adopt the source's event-time horizon without ever
    // regressing this engine's own.
    ObserveEventTime(fragment.max_event_time);
    RaiseWatermarkLocked(fragment.watermark);
  }
  // An orphan's target may have registered here since the extract.
  for (const RawEvent& ev : fragment.orphan_events) {
    AdoptIfRegistered(ev.target);
  }
  return Status::OK();
}

StreamingCdiStats StreamingCdiEngine::stats() const {
  std::lock_guard<std::mutex> lock(*mu_);
  StreamingCdiStats copy = stats_;
  copy.watermark = watermark_;
  return copy;
}

TimePoint StreamingCdiEngine::watermark() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return watermark_;
}

size_t StreamingCdiEngine::num_vms() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->vms.size();
  }
  return n;
}

}  // namespace cdibot
