#include "storage/stream_checkpoint.h"

#include <string_view>
#include <utility>

#include "common/strings.h"
#include "storage/atomic_io.h"

namespace cdibot {
namespace {

/// Smallest possible wire footprint of one element of each repeated type,
/// used to bound Count() reads against the remaining frame.
constexpr size_t kMinEventBytes = 4 + 8 + 4 + 8 + 1 + 4;
constexpr size_t kMinVmEntryBytes = 4 + 4 + 16;
constexpr size_t kMinTargetQualityBytes = 4 + 4 * 8;

/// First field of every checkpoint file's payload.
constexpr std::string_view kCheckpointMagic = "cdibot-stream-checkpoint";

/// A checkpoint file is outside input: unlike the live wire path, a level
/// outside the enum is rejected rather than left for quarantine.
Status CheckSeverities(const std::vector<RawEvent>& events) {
  for (const RawEvent& ev : events) {
    const int level = static_cast<int>(ev.level);
    if (level < 1 || level > kNumSeverityLevels) {
      return Status::InvalidArgument(
          StrFormat("bad severity ordinal %d for %s on %s", level,
                    ev.name.c_str(), ev.target.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

void EncodeRawEvent(WireWriter& w, const RawEvent& ev) {
  w.Str(ev.name);
  w.Time(ev.time);
  w.Str(ev.target);
  w.Dur(ev.expire_interval);
  w.U8(static_cast<uint8_t>(ev.level));
  w.StrMap(ev.attrs);
}

RawEvent DecodeRawEvent(WireReader& r) {
  RawEvent ev;
  ev.name = r.Str();
  ev.time = r.Time();
  ev.target = r.Str();
  ev.expire_interval = r.Dur();
  // A level ordinal outside the enum survives decoding on purpose: the
  // worker's engine quarantines it like any other malformed arrival, so
  // a corrupted frame degrades data quality instead of dropping silently.
  ev.level = static_cast<Severity>(r.U8());
  ev.attrs = r.StrMap();
  return ev;
}

void EncodeCheckpoint(WireWriter& w, const StreamCheckpoint& ckpt) {
  w.Window(ckpt.window);
  w.Time(ckpt.watermark);
  w.Time(ckpt.max_event_time);
  w.U64(ckpt.events_ingested);
  w.U64(ckpt.events_late);
  w.U64(ckpt.events_out_of_window);
  w.U64(ckpt.events_orphaned);
  w.U64(ckpt.vms_recomputed);
  w.U32(static_cast<uint32_t>(ckpt.vms.size()));
  for (const CheckpointVmEntry& vm : ckpt.vms) {
    w.Str(vm.vm_id);
    w.StrMap(vm.dims);
    w.Window(vm.service_period);
  }
  w.U32(static_cast<uint32_t>(ckpt.events.size()));
  for (const RawEvent& ev : ckpt.events) EncodeRawEvent(w, ev);
  w.U32(static_cast<uint32_t>(ckpt.orphan_events.size()));
  for (const RawEvent& ev : ckpt.orphan_events) EncodeRawEvent(w, ev);
  w.U32(static_cast<uint32_t>(ckpt.quarantined_by_reason.size()));
  for (uint64_t count : ckpt.quarantined_by_reason) w.U64(count);
  w.U32(static_cast<uint32_t>(ckpt.target_quality.size()));
  for (const CheckpointTargetQuality& tq : ckpt.target_quality) {
    w.Str(tq.target);
    w.U64(tq.received);
    w.U64(tq.expected);
    w.U64(tq.quarantined);
    w.U64(tq.shed);
  }
}

StreamCheckpoint DecodeCheckpoint(WireReader& r) {
  StreamCheckpoint ckpt;
  ckpt.window = r.Window();
  ckpt.watermark = r.Time();
  ckpt.max_event_time = r.Time();
  ckpt.events_ingested = r.U64();
  ckpt.events_late = r.U64();
  ckpt.events_out_of_window = r.U64();
  ckpt.events_orphaned = r.U64();
  ckpt.vms_recomputed = r.U64();
  uint32_t n = r.Count(kMinVmEntryBytes);
  ckpt.vms.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    CheckpointVmEntry vm;
    vm.vm_id = r.Str();
    vm.dims = r.StrMap();
    vm.service_period = r.Window();
    ckpt.vms.push_back(std::move(vm));
  }
  n = r.Count(kMinEventBytes);
  ckpt.events.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    ckpt.events.push_back(DecodeRawEvent(r));
  }
  n = r.Count(kMinEventBytes);
  ckpt.orphan_events.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    ckpt.orphan_events.push_back(DecodeRawEvent(r));
  }
  n = r.Count(8);
  ckpt.quarantined_by_reason.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    ckpt.quarantined_by_reason.push_back(r.U64());
  }
  n = r.Count(kMinTargetQualityBytes);
  ckpt.target_quality.reserve(n);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    CheckpointTargetQuality tq;
    tq.target = r.Str();
    tq.received = r.U64();
    tq.expected = r.U64();
    tq.quarantined = r.U64();
    tq.shed = r.U64();
    ckpt.target_quality.push_back(std::move(tq));
  }
  return ckpt;
}

Status SaveStreamCheckpoint(const StreamCheckpoint& ckpt,
                            const std::string& path) {
  WireWriter w;
  w.Str(kCheckpointMagic);
  w.U32(kStreamCheckpointVersion);
  EncodeCheckpoint(w, ckpt);
  return WriteFileAtomic(path, EncodeWireFrame(w.frame()));
}

StatusOr<StreamCheckpoint> LoadStreamCheckpoint(const std::string& path) {
  CDIBOT_ASSIGN_OR_RETURN(const std::string file, ReadFileToString(path));
  CDIBOT_ASSIGN_OR_RETURN(const std::string_view payload,
                          DecodeWireFrame(file));
  WireReader r(payload);
  if (r.Str() != kCheckpointMagic) {
    return Status::DataLoss("not a stream checkpoint: " + path);
  }
  const uint32_t version = r.U32();
  CDIBOT_RETURN_IF_ERROR(r.status());
  if (version != kStreamCheckpointVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported checkpoint format_version %u (this build "
                  "reads %u)",
                  version, kStreamCheckpointVersion));
  }
  StreamCheckpoint ckpt = DecodeCheckpoint(r);
  CDIBOT_RETURN_IF_ERROR(r.status());
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes after the checkpoint in " + path);
  }
  if (ckpt.watermark > ckpt.max_event_time) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint watermark %lld is beyond max_event_time %lld",
        static_cast<long long>(ckpt.watermark.millis()),
        static_cast<long long>(ckpt.max_event_time.millis())));
  }
  CDIBOT_RETURN_IF_ERROR(CheckSeverities(ckpt.events));
  CDIBOT_RETURN_IF_ERROR(CheckSeverities(ckpt.orphan_events));
  return ckpt;
}

}  // namespace cdibot
