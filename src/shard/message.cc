#include "shard/message.h"

#include <string_view>
#include <utility>

#include "obs/trace.h"

namespace cdibot::shard {

namespace {

/// Smallest wire footprint of one element of each obs repeated type (see
/// EncodeWorkerObs for the layouts), bounding Count() reads.
constexpr size_t kMinCounterBytes = 4 + 8;
constexpr size_t kMinGaugeBytes = 4 + 8;
constexpr size_t kMinHistogramBytes = 4 + 4 * 8 + 4;
constexpr size_t kMinBucketBytes = 4 + 8;
constexpr size_t kMinSpanStatBytes = 4 + 3 * 8;
constexpr size_t kMinSpanNameBytes = 4;
constexpr size_t kMinSpanBytes = 4 + 8 + 8 + 4 + 4 + 3 * 8 + 1;

/// Smallest possible wire footprint of one element of each repeated type,
/// used to bound Count() reads against the remaining frame.
constexpr size_t kMinVmRowBytes = 4 + 4 + (3 * 8 + 8) + (3 * 8 + 1);
constexpr size_t kMinEventRowBytes = 4 + 4 + 1 + 8 + 8 + 4;

void EncodeHeader(WireWriter& w, uint64_t request_id, MessageKind kind) {
  w.U64(request_id);
  w.U32(static_cast<uint32_t>(kind));
}

/// Requests additionally carry the sender's trace context (responses do
/// not: the coordinator already knows which trace its request belonged to).
void EncodeRequestHeader(WireWriter& w, uint64_t request_id,
                         MessageKind kind) {
  EncodeHeader(w, request_id, kind);
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  w.U64(ctx.trace_id);
  w.U64(ctx.span_id);
}

void EncodeVmCdi(WireWriter& w, const VmCdi& cdi) {
  w.F64(cdi.unavailability);
  w.F64(cdi.performance);
  w.F64(cdi.control_plane);
  w.Dur(cdi.service_time);
}

VmCdi DecodeVmCdi(WireReader& r) {
  VmCdi cdi;
  cdi.unavailability = r.F64();
  cdi.performance = r.F64();
  cdi.control_plane = r.F64();
  cdi.service_time = r.Dur();
  return cdi;
}

void EncodeQuality(WireWriter& w, const DataQuality& q) {
  w.U64(q.events_quarantined);
  w.U64(q.events_missing);
  w.U64(q.events_shed);
  w.Bool(q.degraded);
}

DataQuality DecodeQuality(WireReader& r) {
  DataQuality q;
  q.events_quarantined = r.U64();
  q.events_missing = r.U64();
  q.events_shed = r.U64();
  q.degraded = r.Bool();
  return q;
}

void EncodeVmRow(WireWriter& w, const VmCdiRecord& row) {
  w.Str(row.vm_id);
  w.StrMap(row.dims.map());
  EncodeVmCdi(w, row.cdi);
  EncodeQuality(w, row.quality);
}

VmCdiRecord DecodeVmRow(WireReader& r) {
  VmCdiRecord row;
  row.vm_id = r.Str();
  row.dims = r.StrMap();
  row.cdi = DecodeVmCdi(r);
  row.quality = DecodeQuality(r);
  return row;
}

void EncodeEventRow(WireWriter& w, const EventCdiRecord& row) {
  w.Str(row.vm_id);
  w.Str(row.event_name);
  w.U8(static_cast<uint8_t>(row.category));
  w.F64(row.damage_minutes);
  w.Dur(row.service_time);
  w.StrMap(row.dims.map());
}

EventCdiRecord DecodeEventRow(WireReader& r) {
  EventCdiRecord row;
  row.vm_id = r.Str();
  row.event_name = r.Str();
  row.category = static_cast<StabilityCategory>(r.U8());
  row.damage_minutes = r.F64();
  row.service_time = r.Dur();
  row.dims = r.StrMap();
  return row;
}

void EncodeResolveStats(WireWriter& w, const ResolveStats& s) {
  w.U64(s.resolved);
  w.U64(s.unknown_dropped);
  w.U64(s.duplicate_details_dropped);
  w.U64(s.dangling_end_dropped);
  w.U64(s.unpaired_start_closed);
}

ResolveStats DecodeResolveStats(WireReader& r) {
  ResolveStats s;
  s.resolved = r.U64();
  s.unknown_dropped = r.U64();
  s.duplicate_details_dropped = r.U64();
  s.dangling_end_dropped = r.U64();
  s.unpaired_start_closed = r.U64();
  return s;
}

void EncodeStatus(WireWriter& w, const Status& st) {
  w.U32(static_cast<uint32_t>(st.code()));
  w.Str(st.message());
}

Status DecodeStatus(WireReader& r) {
  const uint32_t code = r.U32();
  return StatusFromWire(code, r.Str());
}

}  // namespace

const char* MessageKindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kPing:
      return "ping";
    case MessageKind::kRegisterVm:
      return "register_vm";
    case MessageKind::kIngestBatch:
      return "ingest_batch";
    case MessageKind::kGather:
      return "gather";
    case MessageKind::kExtractRange:
      return "extract_range";
    case MessageKind::kInstallVms:
      return "install_vms";
    case MessageKind::kExpectDelivery:
      return "expect_delivery";
    case MessageKind::kAdvanceWatermark:
      return "advance_watermark";
    case MessageKind::kCheckpoint:
      return "checkpoint";
    case MessageKind::kRestore:
      return "restore";
    case MessageKind::kHello:
      return "hello";
    case MessageKind::kInit:
      return "init";
    case MessageKind::kObsSnapshot:
      return "obs_snapshot";
  }
  return "unknown";
}

bool IsMessageKind(uint32_t tag) {
  return std::string_view(MessageKindName(static_cast<MessageKind>(tag))) !=
         "unknown";
}

Status StatusFromWire(uint32_t code, const std::string& message) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kInternal:
      return Status::Internal(message);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case StatusCode::kAborted:
      return Status::Aborted(message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
    case StatusCode::kDataLoss:
      return Status::DataLoss(message);
  }
  return Status::Internal("unknown wire status code " + std::to_string(code) +
                          ": " + message);
}

void EncodeVmServiceInfo(WireWriter& w, const VmServiceInfo& vm) {
  w.Str(vm.vm_id);
  w.StrMap(vm.dims.map());
  w.Window(vm.service_period);
}

VmServiceInfo DecodeVmServiceInfo(WireReader& r) {
  VmServiceInfo vm;
  vm.vm_id = r.Str();
  vm.dims = r.StrMap();
  vm.service_period = r.Window();
  return vm;
}

void EncodeSnapshot(WireWriter& w, const ShardSnapshot& snapshot) {
  const DailyCdiResult& result = snapshot.result;
  w.U32(static_cast<uint32_t>(result.per_vm.size()));
  for (const VmCdiRecord& row : result.per_vm) EncodeVmRow(w, row);
  w.U32(static_cast<uint32_t>(result.per_event.size()));
  for (const EventCdiRecord& row : result.per_event) EncodeEventRow(w, row);
  w.U64(result.fleet_baseline.interruption_count);
  w.Dur(result.fleet_baseline.downtime);
  w.Dur(result.fleet_service_time);
  EncodeResolveStats(w, result.resolve_stats);
  EncodeQuality(w, result.quality);
  w.U64(result.vms_evaluated);
  w.U64(result.vms_skipped);
  w.U64(result.vms_failed);
  w.U64(result.vms_deferred);
  w.U64(result.vms_degraded);
  w.U32(static_cast<uint32_t>(result.vm_error_samples.size()));
  for (const std::string& sample : result.vm_error_samples) w.Str(sample);
  EncodeStatus(w, result.first_vm_error);
  w.Time(snapshot.watermark);
  w.U64(snapshot.num_vms);
}

ShardSnapshot DecodeSnapshot(WireReader& r) {
  ShardSnapshot snapshot;
  DailyCdiResult& result = snapshot.result;
  uint32_t n = r.Count(kMinVmRowBytes);
  result.per_vm.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    result.per_vm.push_back(DecodeVmRow(r));
  }
  // An event row repeats its VM's dims on the wire. Decoded, it shares its
  // VM row's Placement when the dims are equal, so a gathered result holds
  // one map per VM, as a local one does. A snapshot's event rows follow its
  // VM rows' order, so one forward cursor finds each VM row in O(rows).
  n = r.Count(kMinEventRowBytes);
  result.per_event.reserve(n);
  size_t vm = 0;
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    EventCdiRecord row = DecodeEventRow(r);
    while (vm < result.per_vm.size() && result.per_vm[vm].vm_id != row.vm_id) {
      ++vm;
    }
    if (vm < result.per_vm.size() && result.per_vm[vm].dims == row.dims) {
      row.dims = result.per_vm[vm].dims;
    }
    result.per_event.push_back(std::move(row));
  }
  result.fleet_baseline.interruption_count = r.U64();
  result.fleet_baseline.downtime = r.Dur();
  result.fleet_service_time = r.Dur();
  result.resolve_stats = DecodeResolveStats(r);
  result.quality = DecodeQuality(r);
  result.vms_evaluated = r.U64();
  result.vms_skipped = r.U64();
  result.vms_failed = r.U64();
  result.vms_deferred = r.U64();
  result.vms_degraded = r.U64();
  n = r.Count(4);
  result.vm_error_samples.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    result.vm_error_samples.push_back(r.Str());
  }
  result.first_vm_error = DecodeStatus(r);
  snapshot.watermark = r.Time();
  snapshot.num_vms = r.U64();
  return snapshot;
}

std::string EncodePing(uint64_t request_id) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kPing);
  return std::move(w).Take();
}

std::string EncodeRegisterVm(uint64_t request_id, const VmServiceInfo& vm) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kRegisterVm);
  EncodeVmServiceInfo(w, vm);
  return std::move(w).Take();
}

std::string EncodeIngestBatch(uint64_t request_id,
                              const std::vector<RawEvent>& events) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kIngestBatch);
  w.U32(static_cast<uint32_t>(events.size()));
  for (const RawEvent& ev : events) EncodeRawEvent(w, ev);
  return std::move(w).Take();
}

std::string EncodeGather(uint64_t request_id, int64_t budget_ms) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kGather);
  w.I64(budget_ms);
  return std::move(w).Take();
}

std::string EncodeExtractRange(uint64_t request_id, const std::string& lo,
                               const std::optional<std::string>& hi) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kExtractRange);
  w.Str(lo);
  w.Bool(hi.has_value());
  w.Str(hi.has_value() ? *hi : std::string());
  return std::move(w).Take();
}

std::string EncodeInstallVms(uint64_t request_id,
                             const StreamCheckpoint& fragment) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kInstallVms);
  EncodeCheckpoint(w, fragment);
  return std::move(w).Take();
}

std::string EncodeExpectDelivery(uint64_t request_id,
                                 const std::string& target, uint64_t count) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kExpectDelivery);
  w.Str(target);
  w.U64(count);
  return std::move(w).Take();
}

std::string EncodeAdvanceWatermark(uint64_t request_id, TimePoint to) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kAdvanceWatermark);
  w.Time(to);
  return std::move(w).Take();
}

std::string EncodeCheckpointRequest(uint64_t request_id) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kCheckpoint);
  return std::move(w).Take();
}

std::string EncodeRestore(uint64_t request_id, const StreamCheckpoint& ckpt) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kRestore);
  EncodeCheckpoint(w, ckpt);
  return std::move(w).Take();
}

std::string EncodeHello(uint64_t request_id) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kHello);
  return std::move(w).Take();
}

std::string EncodeInit(uint64_t request_id, const Interval& window,
                       Duration allowed_lateness, uint32_t engine_shards,
                       const std::optional<WeightSpec>& weights,
                       bool enable_tracing) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kInit);
  w.Window(window);
  w.Dur(allowed_lateness);
  w.U32(engine_shards);
  w.Bool(weights.has_value());
  if (weights.has_value()) EncodeWeightSpec(w, *weights);
  w.Bool(enable_tracing);
  return std::move(w).Take();
}

std::string EncodeObsPull(uint64_t request_id, bool include_spans) {
  WireWriter w;
  EncodeRequestHeader(w, request_id, MessageKind::kObsSnapshot);
  w.Bool(include_spans);
  return std::move(w).Take();
}

std::string EncodeStatusResponse(uint64_t request_id, MessageKind kind,
                                 const Status& status) {
  WireWriter w;
  EncodeHeader(w, request_id, kind);
  EncodeStatus(w, status);
  return std::move(w).Take();
}

std::string EncodePingResponse(uint64_t request_id, const ShardPing& ping) {
  WireWriter w;
  EncodeHeader(w, request_id, MessageKind::kPing);
  EncodeStatus(w, Status::OK());
  w.Time(ping.watermark);
  w.U64(ping.num_vms);
  return std::move(w).Take();
}

std::string EncodeGatherResponse(uint64_t request_id,
                                 const ShardSnapshot& snapshot) {
  WireWriter w;
  EncodeHeader(w, request_id, MessageKind::kGather);
  EncodeStatus(w, Status::OK());
  EncodeSnapshot(w, snapshot);
  return std::move(w).Take();
}

std::string EncodeCheckpointResponse(uint64_t request_id, MessageKind kind,
                                     const StreamCheckpoint& ckpt) {
  WireWriter w;
  EncodeHeader(w, request_id, kind);
  EncodeStatus(w, Status::OK());
  EncodeCheckpoint(w, ckpt);
  return std::move(w).Take();
}

std::string EncodeHelloResponse(uint64_t request_id, const HelloInfo& info) {
  WireWriter w;
  EncodeHeader(w, request_id, MessageKind::kHello);
  EncodeStatus(w, Status::OK());
  w.Bool(info.engine_ready);
  w.U64(info.last_applied);
  w.Time(info.watermark);
  w.U64(info.num_vms);
  return std::move(w).Take();
}

std::string EncodeObsSnapshotResponse(uint64_t request_id,
                                      const obs::WorkerObsSnapshot& snap) {
  WireWriter w;
  EncodeHeader(w, request_id, MessageKind::kObsSnapshot);
  EncodeStatus(w, Status::OK());
  EncodeWorkerObs(w, snap);
  return std::move(w).Take();
}

void EncodeWorkerObs(WireWriter& w, const obs::WorkerObsSnapshot& snap) {
  w.U64(snap.now_ns);
  w.U32(static_cast<uint32_t>(snap.counters.size()));
  for (const obs::CounterSnapshot& c : snap.counters) {
    w.Str(c.name);
    w.U64(c.value);
  }
  w.U32(static_cast<uint32_t>(snap.gauges.size()));
  for (const obs::GaugeSnapshot& g : snap.gauges) {
    w.Str(g.name);
    w.F64(g.value);
  }
  w.U32(static_cast<uint32_t>(snap.histograms.size()));
  for (const obs::HistogramBuckets& h : snap.histograms) {
    w.Str(h.name);
    w.U64(h.count);
    w.U64(h.sum);
    w.U64(h.min);
    w.U64(h.max);
    w.U32(static_cast<uint32_t>(h.buckets.size()));
    for (const auto& [index, count] : h.buckets) {
      w.U32(index);
      w.U64(count);
    }
  }
  w.U32(static_cast<uint32_t>(snap.span_stats.size()));
  for (const obs::SpanStat& s : snap.span_stats) {
    w.Str(s.name);
    w.U64(s.count);
    w.U64(s.total_ns);
    w.U64(s.max_ns);
  }
  // Spans intern their names: fleet traces repeat a handful of literals
  // across thousands of spans, so a name table keeps the frame small.
  std::map<std::string_view, uint32_t> name_index;
  std::vector<std::string_view> names;
  for (const obs::PortableSpan& span : snap.spans) {
    if (name_index.emplace(span.name, names.size()).second) {
      names.push_back(span.name);
    }
  }
  w.U32(static_cast<uint32_t>(names.size()));
  for (std::string_view name : names) w.Str(name);
  w.U32(static_cast<uint32_t>(snap.spans.size()));
  for (const obs::PortableSpan& span : snap.spans) {
    w.U32(name_index[span.name]);
    w.U64(span.start_ns);
    w.U64(span.dur_ns);
    w.U32(span.tid);
    w.U32(span.depth);
    w.U64(span.trace_id);
    w.U64(span.span_id);
    w.U64(span.parent_span_id);
    w.Bool(span.instant);
  }
  w.U64(snap.spans_dropped);
  w.Bool(snap.tracing_enabled);
}

obs::WorkerObsSnapshot DecodeWorkerObs(WireReader& r) {
  obs::WorkerObsSnapshot snap;
  snap.now_ns = r.U64();
  uint32_t n = r.Count(kMinCounterBytes);
  snap.counters.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    obs::CounterSnapshot c;
    c.name = r.Str();
    c.value = r.U64();
    snap.counters.push_back(std::move(c));
  }
  n = r.Count(kMinGaugeBytes);
  snap.gauges.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    obs::GaugeSnapshot g;
    g.name = r.Str();
    g.value = r.F64();
    snap.gauges.push_back(std::move(g));
  }
  n = r.Count(kMinHistogramBytes);
  snap.histograms.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    obs::HistogramBuckets h;
    h.name = r.Str();
    h.count = r.U64();
    h.sum = r.U64();
    h.min = r.U64();
    h.max = r.U64();
    const uint32_t buckets = r.Count(kMinBucketBytes);
    h.buckets.reserve(buckets);
    for (uint32_t j = 0; j < buckets && r.ok(); ++j) {
      const uint32_t index = r.U32();
      const uint64_t count = r.U64();
      h.buckets.emplace_back(index, count);
    }
    snap.histograms.push_back(std::move(h));
  }
  n = r.Count(kMinSpanStatBytes);
  snap.span_stats.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    obs::SpanStat s;
    s.name = r.Str();
    s.count = r.U64();
    s.total_ns = r.U64();
    s.max_ns = r.U64();
    snap.span_stats.push_back(std::move(s));
  }
  n = r.Count(kMinSpanNameBytes);
  std::vector<std::string> names;
  names.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) names.push_back(r.Str());
  n = r.Count(kMinSpanBytes);
  snap.spans.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    obs::PortableSpan span;
    const uint32_t name_index = r.U32();
    if (r.ok() && name_index >= names.size()) {
      r.Fail("span name index out of range");
      break;
    }
    if (r.ok()) span.name = names[name_index];
    span.start_ns = r.U64();
    span.dur_ns = r.U64();
    span.tid = r.U32();
    span.depth = r.U32();
    span.trace_id = r.U64();
    span.span_id = r.U64();
    span.parent_span_id = r.U64();
    span.instant = r.Bool();
    snap.spans.push_back(std::move(span));
  }
  snap.spans_dropped = r.U64();
  snap.tracing_enabled = r.Bool();
  return snap;
}

void EncodeWeightSpec(WireWriter& w, const WeightSpec& spec) {
  w.U32(static_cast<uint32_t>(spec.ticket_counts.size()));
  for (const auto& [name, count] : spec.ticket_counts) {
    w.Str(name);
    w.I64(count);
  }
  w.U32(static_cast<uint32_t>(spec.ticket_levels));
  w.U32(static_cast<uint32_t>(spec.options.expert_levels));
  w.U32(static_cast<uint32_t>(spec.options.ticket_levels));
  w.F64(spec.options.alpha_expert);
  w.F64(spec.options.alpha_ticket);
  w.U32(static_cast<uint32_t>(spec.overrides.size()));
  for (const auto& [name, weight] : spec.overrides) {
    w.Str(name);
    w.F64(weight);
  }
}

WeightSpec DecodeWeightSpec(WireReader& r) {
  WeightSpec spec;
  uint32_t n = r.Count(4 + 8);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string name = r.Str();
    spec.ticket_counts[std::move(name)] = r.I64();
  }
  spec.ticket_levels = static_cast<int>(r.U32());
  spec.options.expert_levels = static_cast<int>(r.U32());
  spec.options.ticket_levels = static_cast<int>(r.U32());
  spec.options.alpha_expert = r.F64();
  spec.options.alpha_ticket = r.F64();
  n = r.Count(4 + 8);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string name = r.Str();
    spec.overrides[std::move(name)] = r.F64();
  }
  return spec;
}

StatusOr<EventWeightModel> BuildWeightModel(const WeightSpec& spec) {
  CDIBOT_ASSIGN_OR_RETURN(
      TicketRankModel ticket,
      TicketRankModel::FromCounts(spec.ticket_counts, spec.ticket_levels));
  CDIBOT_ASSIGN_OR_RETURN(EventWeightModel model,
                          EventWeightModel::Build(std::move(ticket),
                                                  spec.options));
  for (const auto& [name, weight] : spec.overrides) {
    CDIBOT_RETURN_IF_ERROR(model.SetOverride(name, weight));
  }
  return model;
}

HelloInfo DecodeHelloInfo(WireReader& r) {
  HelloInfo info;
  info.engine_ready = r.Bool();
  info.last_applied = r.U64();
  info.watermark = r.Time();
  info.num_vms = r.U64();
  return info;
}

InitConfig DecodeInitConfig(WireReader& r) {
  InitConfig config;
  config.window = r.Window();
  config.allowed_lateness = r.Dur();
  config.engine_shards = r.U32();
  config.has_weights = r.Bool();
  if (config.has_weights) config.weights = DecodeWeightSpec(r);
  config.enable_tracing = r.Bool();
  return config;
}

StatusOr<RequestFrame> DecodeRequestHeader(const std::string& frame) {
  RequestFrame req;
  req.reader = WireReader(frame);
  req.request_id = req.reader.U64();
  const uint32_t kind = req.reader.U32();
  req.trace_id = req.reader.U64();
  req.parent_span_id = req.reader.U64();
  CDIBOT_RETURN_IF_ERROR(req.reader.status());
  if (!IsMessageKind(kind)) {
    return Status::DataLoss("unknown request kind " + std::to_string(kind));
  }
  req.kind = static_cast<MessageKind>(kind);
  return req;
}

StatusOr<ResponseFrame> DecodeResponseHeader(const std::string& frame) {
  ResponseFrame resp;
  resp.reader = WireReader(frame);
  resp.request_id = resp.reader.U64();
  const uint32_t kind = resp.reader.U32();
  resp.status = DecodeStatus(resp.reader);
  CDIBOT_RETURN_IF_ERROR(resp.reader.status());
  if (!IsMessageKind(kind)) {
    return Status::DataLoss("unknown response kind " + std::to_string(kind));
  }
  resp.kind = static_cast<MessageKind>(kind);
  return resp;
}

}  // namespace cdibot::shard
